/**
 * @file
 * Snapshot/restore instantiation and persistent code cache (DESIGN.md
 * §14): a template is captured only once a module is reused, restored
 * instances must be bit-exact with fresh ones across every (strategy,
 * engine) pair, growing past the template must be
 * invalidated cleanly on recycle, shared memories and the uffd
 * emulation must refuse capture but stay correct, serialized artifacts
 * must round-trip through bytes, and the disk cache must reject
 * corrupt, truncated and stale files while surviving a process
 * boundary.
 */
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "mem/linear_memory.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "svc/module_cache.h"
#include "wasm/builder.h"
#include "wasm/encoder.h"

namespace lnb {
namespace {

using mem::BoundsStrategy;
using rt::CallOutcome;
using rt::Engine;
using rt::EngineConfig;
using rt::EngineKind;
using rt::ImportMap;
using rt::Instance;
using wasm::Instr;
using wasm::Op;
using wasm::ValType;
using wasm::Value;

/** Encoded module bytes shared by every test. */
struct TestModule
{
    std::vector<uint8_t> bytes;
};

TestModule
buildStateful(bool impure_start = false)
{
    wasm::ModuleBuilder mb;
    uint32_t void_t = mb.addType({}, {});
    uint32_t host_idx = 0;
    if (impure_start)
        host_idx = mb.addImport("env", "tick", void_t);
    mb.addMemory(1, 4);
    std::vector<uint8_t> seed = {1, 2, 3, 4, 5, 6, 7, 8};
    mb.addData(64, seed);
    uint32_t g = mb.addGlobal(ValType::i32, true, Instr::constI32(7));

    auto& start = mb.addFunction(void_t);
    if (impure_start)
        start.call(host_idx);
    // start: grow one page, store a marker in the original page and one
    // in the grown page, and derive the global from the data segment.
    start.i32Const(1);
    start.memoryGrow();
    start.drop();
    start.i32Const(128);
    start.i32Const(int32_t(0xdeadbeef));
    start.memOp(Op::i32_store);
    start.i32Const(65536 + 16); // second page
    start.i32Const(4242);
    start.memOp(Op::i32_store);
    start.i32Const(64);
    start.memOp(Op::i32_load); // 0x04030201 from the data segment
    start.globalGet(g);
    start.emit(Op::i32_add);
    start.globalSet(g);
    uint32_t start_idx = start.finish();
    mb.setStart(start_idx);

    uint32_t poke_t = mb.addType({ValType::i32, ValType::i32}, {});
    auto& poke = mb.addFunction(poke_t);
    poke.localGet(0);
    poke.localGet(1);
    poke.memOp(Op::i32_store);
    mb.exportFunc("poke", poke.finish());

    uint32_t peek_t = mb.addType({ValType::i32}, {ValType::i32});
    auto& peek = mb.addFunction(peek_t);
    peek.localGet(0);
    peek.memOp(Op::i32_load);
    mb.exportFunc("peek", peek.finish());

    uint32_t gget_t = mb.addType({}, {ValType::i32});
    auto& gget = mb.addFunction(gget_t);
    gget.globalGet(g);
    mb.exportFunc("gget", gget.finish());

    auto& bump = mb.addFunction(void_t);
    bump.globalGet(g);
    bump.i32Const(1);
    bump.emit(Op::i32_add);
    bump.globalSet(g);
    mb.exportFunc("bump", bump.finish());

    uint32_t grow_t = mb.addType({ValType::i32}, {ValType::i32});
    auto& grow = mb.addFunction(grow_t);
    grow.localGet(0);
    grow.memoryGrow();
    mb.exportFunc("grow", grow.finish());

    uint32_t size_t_ = mb.addType({}, {ValType::i32});
    auto& size = mb.addFunction(size_t_);
    size.memorySize();
    mb.exportFunc("size", size.finish());

    return {wasm::encodeModule(mb.build())};
}

int32_t
callI32(Instance& inst, const std::string& name,
        std::vector<Value> args = {})
{
    CallOutcome out = inst.callExport(name, args);
    EXPECT_TRUE(out.ok()) << name << ": " << wasm::trapKindName(out.trap);
    return out.ok() && !out.results.empty() ? int32_t(out.results[0].i32)
                                            : -1;
}

void
callVoid(Instance& inst, const std::string& name,
         std::vector<Value> args = {})
{
    CallOutcome out = inst.callExport(name, args);
    EXPECT_TRUE(out.ok()) << name << ": " << wasm::trapKindName(out.trap);
}

/** Instance state equality: size, full memory contents, global. */
void
expectBitExact(Instance& a, Instance& b, const std::string& what)
{
    ASSERT_NE(a.memory(), nullptr);
    ASSERT_NE(b.memory(), nullptr);
    ASSERT_EQ(a.memory()->sizeBytes(), b.memory()->sizeBytes()) << what;
    EXPECT_EQ(std::memcmp(a.memory()->base(), b.memory()->base(),
                          size_t(a.memory()->sizeBytes())),
              0)
        << what << ": memory contents differ";
    EXPECT_EQ(callI32(a, "gget"), callI32(b, "gget")) << what;
}

struct EngineCase
{
    const char* name;
    EngineKind kind;
    bool tiered;
};

const EngineCase kEngines[] = {
    {"interp", EngineKind::interp_threaded, false},
    {"jit", EngineKind::jit_base, false},
    {"tiered", EngineKind::jit_opt, true},
};

TEST(Snapshot, RestoredBitExactAcrossStrategiesAndEngines)
{
    TestModule tm = buildStateful();
    for (const EngineCase& ec : kEngines) {
        for (int s = 0; s < mem::kNumBoundsStrategies; s++) {
            EngineConfig config;
            config.kind = ec.kind;
            config.tiered = ec.tiered;
            config.strategy = BoundsStrategy(s);
            SCOPED_TRACE(std::string(ec.name) + "/" +
                         mem::boundsStrategyName(config.strategy));

            Engine engine(config);
            auto compiled = engine.compileBytes(tm.bytes);
            ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
            auto cm = compiled.takeValue();

            // The first instance runs segments + start and captures
            // nothing; the second runs them too, then captures the
            // template and adopts it; the third restores from it (where
            // supported).
            auto a = Instance::create(cm);
            ASSERT_TRUE(a.isOk()) << a.status().toString();
            auto b = Instance::create(cm);
            ASSERT_TRUE(b.isOk()) << b.status().toString();
            expectBitExact(*a.value(), *b.value(), "fresh vs captured");
            auto c = Instance::create(cm);
            ASSERT_TRUE(c.isOk()) << c.status().toString();
            expectBitExact(*a.value(), *c.value(), "fresh vs restored");

            // Post-start state must be present either way.
            EXPECT_EQ(callI32(*b.value(), "peek", {Value::fromI32(128)}),
                      int32_t(0xdeadbeef));
            EXPECT_EQ(callI32(*b.value(), "peek",
                              {Value::fromI32(65536 + 16)}),
                      4242);
            EXPECT_EQ(callI32(*b.value(), "gget"),
                      7 + int32_t(0x04030201));
            EXPECT_EQ(callI32(*b.value(), "size"), 2);

            // Dirty the restored instance, recycle it, and demand bit
            // equality with a never-touched sibling again.
            callVoid(*b.value(), "poke",
                     {Value::fromI32(256), Value::fromI32(777)});
            callVoid(*b.value(), "bump");
            ASSERT_TRUE(b.value()->recycle().isOk());
            expectBitExact(*a.value(), *b.value(), "after recycle");
            EXPECT_EQ(callI32(*b.value(), "peek", {Value::fromI32(256)}),
                      0);
        }
    }
}

// ---------------------------------------------------------------------
// Capture policy: a template is captured on reuse, not on first use
// ---------------------------------------------------------------------

/** Deltas of the snapshot protocol counters over a scope. */
struct SnapshotCounters
{
    uint64_t captures = 0;
    uint64_t adopts = 0;
    uint64_t restores = 0;

    static SnapshotCounters now()
    {
        obs::MetricsSnapshot m = obs::snapshotMetrics();
        return {m.counter("mem.snapshot_captures"),
                m.counter("mem.snapshot_adopts"),
                m.counter("rt.snapshot_restores")};
    }
    SnapshotCounters since(const SnapshotCounters& before) const
    {
        return {captures - before.captures, adopts - before.adopts,
                restores - before.restores};
    }
};

void
expectCounts(const SnapshotCounters& d, uint64_t captures, uint64_t adopts,
             uint64_t restores)
{
    EXPECT_EQ(d.captures, captures);
    EXPECT_EQ(d.adopts, adopts);
    EXPECT_EQ(d.restores, restores);
}

std::shared_ptr<const rt::CompiledModule>
compileStateful()
{
    auto compiled = Engine(EngineConfig{}).compileBytes(
        buildStateful().bytes);
    EXPECT_TRUE(compiled.isOk()) << compiled.status().toString();
    return compiled.isOk() ? compiled.takeValue() : nullptr;
}

TEST(SnapshotPolicy, OneShotCreateCapturesNothing)
{
    auto cm = compileStateful();
    ASSERT_NE(cm, nullptr);
    SnapshotCounters before = SnapshotCounters::now();
    auto a = Instance::create(cm);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    expectCounts(SnapshotCounters::now().since(before), 0, 0, 0);
    EXPECT_FALSE(a.value()->memory()->hasSnapshot());
    EXPECT_EQ(cm->snapshot(), nullptr);
    EXPECT_EQ(callI32(*a.value(), "peek", {Value::fromI32(128)}),
              int32_t(0xdeadbeef));
}

TEST(SnapshotPolicy, SecondCreateCapturesAndThirdRestores)
{
    auto cm = compileStateful();
    ASSERT_NE(cm, nullptr);
    auto a = Instance::create(cm);
    ASSERT_TRUE(a.isOk()) << a.status().toString();

    SnapshotCounters before = SnapshotCounters::now();
    auto b = Instance::create(cm);
    ASSERT_TRUE(b.isOk()) << b.status().toString();
    expectCounts(SnapshotCounters::now().since(before), 1, 1, 0);
    EXPECT_NE(cm->snapshot(), nullptr);
    EXPECT_TRUE(b.value()->memory()->hasSnapshot());
    EXPECT_FALSE(a.value()->memory()->hasSnapshot());

    before = SnapshotCounters::now();
    auto c = Instance::create(cm);
    ASSERT_TRUE(c.isOk()) << c.status().toString();
    expectCounts(SnapshotCounters::now().since(before), 0, 1, 1);
    EXPECT_TRUE(c.value()->memory()->hasSnapshot());
    expectBitExact(*a.value(), *c.value(), "first vs restored third");
}

TEST(SnapshotPolicy, LoneInstanceCapturesOnFirstRecycleRestoresOnSecond)
{
    auto cm = compileStateful();
    ASSERT_NE(cm, nullptr);
    auto fresh = Instance::create(cm);
    ASSERT_TRUE(fresh.isOk()) << fresh.status().toString();
    Instance& inst = *fresh.value();

    callVoid(inst, "poke", {Value::fromI32(256), Value::fromI32(5)});
    SnapshotCounters before = SnapshotCounters::now();
    ASSERT_TRUE(inst.recycle().isOk());
    expectCounts(SnapshotCounters::now().since(before), 1, 1, 0);
    EXPECT_TRUE(inst.memory()->hasSnapshot());
    EXPECT_EQ(callI32(inst, "peek", {Value::fromI32(256)}), 0);

    callVoid(inst, "poke", {Value::fromI32(256), Value::fromI32(6)});
    callVoid(inst, "bump");
    before = SnapshotCounters::now();
    ASSERT_TRUE(inst.recycle().isOk());
    expectCounts(SnapshotCounters::now().since(before), 0, 0, 1);
    EXPECT_EQ(callI32(inst, "peek", {Value::fromI32(256)}), 0);
    EXPECT_EQ(callI32(inst, "gget"), 7 + int32_t(0x04030201));
}

TEST(SnapshotPolicy, ConcurrentFirstAndSecondCreatePublishOneTemplate)
{
    for (int round = 0; round < 20; round++) {
        auto cm = compileStateful();
        ASSERT_NE(cm, nullptr);
        SnapshotCounters before = SnapshotCounters::now();
        std::atomic<int> ready{0};
        std::unique_ptr<Instance> made[2];
        std::thread threads[2];
        for (int t = 0; t < 2; t++) {
            threads[t] = std::thread([&, t] {
                ready.fetch_add(1);
                while (ready.load() < 2) {
                }
                auto inst = Instance::create(cm);
                if (inst.isOk())
                    made[t] = inst.takeValue();
            });
        }
        for (std::thread& th : threads)
            th.join();
        ASSERT_NE(made[0], nullptr);
        ASSERT_NE(made[1], nullptr);
        SCOPED_TRACE("round " + std::to_string(round));
        expectCounts(SnapshotCounters::now().since(before), 1, 1, 0);
        EXPECT_NE(cm->snapshot(), nullptr);
        EXPECT_NE(made[0]->memory()->hasSnapshot(),
                  made[1]->memory()->hasSnapshot());
        expectBitExact(*made[0], *made[1], "concurrent creates");
    }
}

TEST(Snapshot, GrowPastTemplateIsInvalidatedOnRecycle)
{
    TestModule tm = buildStateful();
    for (BoundsStrategy s :
         {BoundsStrategy::mprotect, BoundsStrategy::none,
          BoundsStrategy::trap}) {
        EngineConfig config;
        config.strategy = s;
        SCOPED_TRACE(mem::boundsStrategyName(s));
        Engine engine(config);
        auto compiled = engine.compileBytes(tm.bytes);
        ASSERT_TRUE(compiled.isOk());
        auto cm = compiled.takeValue();

        auto a = Instance::create(cm);
        ASSERT_TRUE(a.isOk());
        auto b = Instance::create(cm);
        ASSERT_TRUE(b.isOk()) << b.status().toString();
        Instance& inst = *b.value();

        // Grow past the 2-page template and dirty the third page.
        EXPECT_EQ(callI32(inst, "grow", {Value::fromI32(1)}), 2);
        callVoid(inst, "poke",
                 {Value::fromI32(2 * 65536 + 8), Value::fromI32(31337)});
        ASSERT_TRUE(inst.recycle().isOk());

        // Size must be back at the template, contents bit-exact...
        EXPECT_EQ(callI32(inst, "size"), 2);
        expectBitExact(*a.value(), inst, "after grow + recycle");
        // ...and re-growing must expose zeroed pages, not residue.
        EXPECT_EQ(callI32(inst, "grow", {Value::fromI32(1)}), 2);
        EXPECT_EQ(callI32(inst, "peek", {Value::fromI32(2 * 65536 + 8)}),
                  0);
    }
}

TEST(Snapshot, SharedMemoryRefusesCapture)
{
    TestModule tm = buildStateful();
    EngineConfig config;
    config.sharedMemory = true;
    Engine engine(config);
    auto compiled = engine.compileBytes(tm.bytes);
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    auto cm = compiled.takeValue();

    auto a = Instance::create(cm);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    auto b = Instance::create(cm);
    ASSERT_TRUE(b.isOk());
    // No template on either instance's memory; behavior stays correct.
    EXPECT_FALSE(a.value()->memory()->hasSnapshot());
    EXPECT_FALSE(b.value()->memory()->hasSnapshot());
    EXPECT_EQ(callI32(*b.value(), "peek", {Value::fromI32(128)}),
              int32_t(0xdeadbeef));
}

TEST(Snapshot, UffdEmulationRefusesCaptureButStaysCorrect)
{
    TestModule tm = buildStateful();
    EngineConfig config;
    config.strategy = BoundsStrategy::uffd;
    config.forceUffdEmulation = true;
    Engine engine(config);
    auto compiled = engine.compileBytes(tm.bytes);
    ASSERT_TRUE(compiled.isOk());
    auto cm = compiled.takeValue();

    auto a = Instance::create(cm);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    EXPECT_FALSE(a.value()->memory()->hasSnapshot());
    auto b = Instance::create(cm);
    ASSERT_TRUE(b.isOk());
    EXPECT_FALSE(b.value()->memory()->hasSnapshot());
    // The second full init is the first capture attempt.
    EXPECT_TRUE(cm->snapshotRefused());
    // Legacy recycle path still works and is still equivalent to fresh.
    callVoid(*b.value(), "poke",
             {Value::fromI32(512), Value::fromI32(99)});
    ASSERT_TRUE(b.value()->recycle().isOk());
    expectBitExact(*a.value(), *b.value(), "uffd-emu recycle");
}

TEST(Snapshot, ImpureStartSkipsCapture)
{
    TestModule tm = buildStateful(/*impure_start=*/true);
    EngineConfig config;
    Engine engine(config);
    auto compiled = engine.compileBytes(tm.bytes);
    ASSERT_TRUE(compiled.isOk());
    auto cm = compiled.takeValue();
    EXPECT_FALSE(cm->startIsPure());

    ImportMap imports;
    imports.add("env", "tick", wasm::FuncType{{}, {}},
                [](exec::InstanceContext*, Value*, void*) {});
    auto a = Instance::create(cm, imports);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    EXPECT_FALSE(a.value()->memory()->hasSnapshot());
    auto b = Instance::create(cm, imports);
    ASSERT_TRUE(b.isOk());
    expectBitExact(*a.value(), *b.value(), "impure start");
}

// ---------------------------------------------------------------------
// Serialized artifacts and the persistent disk cache
// ---------------------------------------------------------------------

TEST(Serialize, CompiledModuleRoundTripsThroughBytes)
{
    TestModule tm = buildStateful();
    for (const EngineCase& ec : kEngines) {
        for (BoundsStrategy s :
             {BoundsStrategy::trap, BoundsStrategy::mprotect,
              BoundsStrategy::clamp}) {
            EngineConfig config;
            config.kind = ec.kind;
            config.tiered = ec.tiered;
            config.strategy = s;
            SCOPED_TRACE(std::string(ec.name) + "/" +
                         mem::boundsStrategyName(s));
            Engine engine(config);
            auto compiled = engine.compileBytes(tm.bytes);
            ASSERT_TRUE(compiled.isOk());
            auto cm = compiled.takeValue();

            std::vector<uint8_t> blob = rt::serializeCompiledModule(*cm);
            auto reloaded =
                rt::deserializeCompiledModule(blob.data(), blob.size());
            ASSERT_TRUE(reloaded.isOk())
                << reloaded.status().toString();

            auto a = Instance::create(cm);
            ASSERT_TRUE(a.isOk());
            auto b = Instance::create(reloaded.takeValue());
            ASSERT_TRUE(b.isOk()) << b.status().toString();
            expectBitExact(*a.value(), *b.value(), "reloaded artifact");
            callVoid(*b.value(), "poke",
                     {Value::fromI32(300), Value::fromI32(1)});
            EXPECT_EQ(callI32(*b.value(), "peek", {Value::fromI32(300)}),
                      1);
            EXPECT_EQ(callI32(*b.value(), "size"), 2);
        }
    }
}

TEST(Serialize, TruncatedBlobIsRejected)
{
    TestModule tm = buildStateful();
    Engine engine(EngineConfig{});
    auto compiled = engine.compileBytes(tm.bytes);
    ASSERT_TRUE(compiled.isOk());
    std::vector<uint8_t> blob =
        rt::serializeCompiledModule(*compiled.value());
    for (size_t len : {size_t(0), size_t(8), blob.size() / 2,
                       blob.size() - 1}) {
        auto reloaded = rt::deserializeCompiledModule(blob.data(), len);
        EXPECT_FALSE(reloaded.isOk()) << "len=" << len;
    }
}

TEST(Serialize, OutOfRangeEnumBytesAreRejected)
{
    TestModule tm = buildStateful();
    auto compiled = Engine(EngineConfig{}).compileBytes(tm.bytes);
    ASSERT_TRUE(compiled.isOk());
    const std::vector<uint8_t> blob =
        rt::serializeCompiledModule(*compiled.value());
    // The blob opens with the config: the kind byte, then the strategy.
    for (size_t offset : {size_t(0), size_t(1)}) {
        std::vector<uint8_t> bad = blob;
        bad[offset] = 0x7f;
        auto reloaded = rt::deserializeCompiledModule(bad.data(), bad.size());
        ASSERT_FALSE(reloaded.isOk()) << "offset=" << offset;
        EXPECT_EQ(reloaded.status().code(), StatusCode::invalid_argument);
    }
}

TEST(Serialize, OpcodesWithoutAHandlerAreRejected)
{
    // An interpreter artifact carries register-form IR that the
    // threaded interpreter dispatches through a label table by opcode.
    TestModule tm = buildStateful();
    EngineConfig config;
    config.kind = EngineKind::interp_threaded;
    auto compiled = Engine(config).compileBytes(tm.bytes);
    ASSERT_TRUE(compiled.isOk());
    const std::vector<uint8_t> blob =
        rt::serializeCompiledModule(*compiled.value());
    const wasm::LoweredFunc* func = nullptr;
    for (const wasm::LoweredFunc& f : compiled.value()->lowered().funcs) {
        for (const wasm::LInst& inst : f.code) {
            if (wasm::isFormOp(inst.op))
                func = &f;
        }
    }
    ASSERT_NE(func, nullptr) << "no register form to corrupt";
    const auto* code = reinterpret_cast<const uint8_t*>(func->code.data());
    const size_t code_bytes = func->code.size() * sizeof(wasm::LInst);
    auto at = std::search(blob.begin(), blob.end(), code, code + code_bytes);
    ASSERT_NE(at, blob.end());
    const size_t base = size_t(at - blob.begin());

    // Past the table, and forms the op has no handler for.
    const uint16_t bad_ops[] = {
        uint16_t(wasm::kIrOpCount),
        UINT16_MAX,
        wasm::formOp(wasm::IrForm::rr, wasm::Op::i32_load),
        wasm::formOp(wasm::IrForm::jri, wasm::Op::f64_add),
        wasm::formOp(wasm::IrForm::r, wasm::Op::i32_store),
        wasm::formOp(wasm::IrForm::ri, wasm::Op::i32_atomic_rmw_add),
    };
    for (size_t k = 0; k < func->code.size(); k++) {
        for (uint16_t op : bad_ops) {
            std::vector<uint8_t> bad = blob;
            std::memcpy(&bad[base + k * sizeof(wasm::LInst) +
                             offsetof(wasm::LInst, op)],
                        &op, sizeof op);
            auto reloaded =
                rt::deserializeCompiledModule(bad.data(), bad.size());
            ASSERT_FALSE(reloaded.isOk()) << "inst " << k << " op " << op;
            EXPECT_EQ(reloaded.status().code(),
                      StatusCode::invalid_argument);
        }
    }
}

TEST(Serialize, CorruptCheckSkipListsAreRejected)
{
    // mem[a] three times: the check analysis lists the last two loads,
    // and a tiered trap artifact keeps the IR with its skip list.
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t);
    for (int i = 0; i < 3; i++) {
        f.localGet(0);
        f.memOp(Op::i32_load);
        if (i > 0)
            f.emit(Op::i32_add);
    }
    mb.exportFunc("sum3", f.finish());
    EngineConfig config;
    config.tiered = true;
    config.strategy = BoundsStrategy::trap;
    auto compiled =
        Engine(config).compileBytes(wasm::encodeModule(mb.build()));
    ASSERT_TRUE(compiled.isOk());
    const std::vector<uint8_t> blob =
        rt::serializeCompiledModule(*compiled.value());
    const wasm::LoweredFunc& func = compiled.value()->lowered().funcs[0];
    const std::vector<uint32_t>& pcs = func.elidableCheckPcs;
    ASSERT_EQ(pcs.size(), 2u);
    ASSERT_TRUE(func.tablePool.empty());

    // The function's code, then its (empty) table pool and skip list,
    // each a u64 count followed by the elements.
    const auto* code = reinterpret_cast<const uint8_t*>(func.code.data());
    const size_t code_bytes = func.code.size() * sizeof(wasm::LInst);
    auto at = std::search(blob.begin(), blob.end(), code, code + code_bytes);
    ASSERT_NE(at, blob.end());
    const size_t list = size_t(at - blob.begin()) + code_bytes + 2 * 8;
    ASSERT_EQ(std::memcmp(&blob[list], pcs.data(), 2 * sizeof(uint32_t)),
              0);

    // An instruction without a check, before the last listed pc.
    uint32_t no_check = 0;
    while (wasm::carriesBoundsCheck(func.code[no_check]))
        no_check++;
    ASSERT_LT(no_check, pcs[1]);

    const std::vector<uint32_t> bad_lists[] = {
        {pcs[0], uint32_t(func.code.size())}, // past the code
        {pcs[1], pcs[0]},                     // not increasing
        {pcs[0], pcs[0]},                     // a duplicate
        {no_check, pcs[1]},                   // no check at that pc
    };
    for (const std::vector<uint32_t>& bad_list : bad_lists) {
        std::vector<uint8_t> bad = blob;
        std::memcpy(&bad[list], bad_list.data(), 2 * sizeof(uint32_t));
        auto reloaded = rt::deserializeCompiledModule(bad.data(), bad.size());
        ASSERT_FALSE(reloaded.isOk())
            << "list " << bad_list[0] << ", " << bad_list[1];
        EXPECT_EQ(reloaded.status().code(), StatusCode::invalid_argument);
    }
    EXPECT_TRUE(rt::deserializeCompiledModule(blob.data(), blob.size()).isOk());
}

TEST(Serialize, CorruptMemBasePinFlagIsRejected)
{
    // A tiered artifact keeps the IR, whose one function loads and so
    // pins the memory base: the flag byte follows the function's code,
    // its (empty) table pool and its (empty) skip list.
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t);
    f.localGet(0);
    f.memOp(Op::i32_load);
    mb.exportFunc("load", f.finish());
    EngineConfig config;
    config.tiered = true;
    auto compiled =
        Engine(config).compileBytes(wasm::encodeModule(mb.build()));
    ASSERT_TRUE(compiled.isOk());
    const std::vector<uint8_t> blob =
        rt::serializeCompiledModule(*compiled.value());
    const wasm::LoweredFunc& func = compiled.value()->lowered().funcs[0];
    ASSERT_TRUE(func.memBasePinned);
    ASSERT_TRUE(func.tablePool.empty() && func.elidableCheckPcs.empty());

    const auto* code = reinterpret_cast<const uint8_t*>(func.code.data());
    const size_t code_bytes = func.code.size() * sizeof(wasm::LInst);
    auto at = std::search(blob.begin(), blob.end(), code, code + code_bytes);
    ASSERT_NE(at, blob.end());
    const size_t flag = size_t(at - blob.begin()) + code_bytes + 2 * 8;
    ASSERT_EQ(blob[flag], 1);

    for (uint8_t value : {uint8_t(2), uint8_t(0x80), uint8_t(0xFF)}) {
        std::vector<uint8_t> bad = blob;
        bad[flag] = value;
        auto reloaded = rt::deserializeCompiledModule(bad.data(), bad.size());
        ASSERT_FALSE(reloaded.isOk()) << int(value);
        EXPECT_EQ(reloaded.status().code(), StatusCode::invalid_argument);
    }
    // 0 is a valid flag: the reloaded IR just no longer pins.
    std::vector<uint8_t> unpinned = blob;
    unpinned[flag] = 0;
    auto reloaded =
        rt::deserializeCompiledModule(unpinned.data(), unpinned.size());
    ASSERT_TRUE(reloaded.isOk()) << reloaded.status().toString();
    EXPECT_FALSE(reloaded.value()->lowered().funcs[0].memBasePinned);
    reloaded = rt::deserializeCompiledModule(blob.data(), blob.size());
    ASSERT_TRUE(reloaded.isOk());
    EXPECT_TRUE(reloaded.value()->lowered().funcs[0].memBasePinned);
}

TEST(Serialize, OutOfRangeFormOperandsAreRejected)
{
    // A loop whose IR holds an rr (acc = x - y), a jrr (i < y), a jri
    // (acc > 5) and plain jumps (the if/else). The JIT turns form cells
    // into frame operands and jump targets into labels, so each field
    // pushed one past its range must be refused.
    wasm::ModuleBuilder mb;
    uint32_t t = mb.addType({ValType::i32, ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t);
    uint32_t i = f.addLocal(ValType::i32);
    uint32_t acc = f.addLocal(ValType::i32);
    auto exit = f.block();
    auto loop = f.loop();
    f.localGet(0);
    f.localGet(1);
    f.emit(Op::i32_sub);
    f.localSet(acc);
    f.localGet(acc);
    f.i32Const(5);
    f.emit(Op::i32_gt_s);
    f.brIf(exit);
    f.localGet(i);
    f.ifElse();
    f.localGet(i);
    f.i32Const(2);
    f.emit(Op::i32_add);
    f.localSet(i);
    f.elseBranch();
    f.i32Const(1);
    f.localSet(i);
    f.end();
    f.localGet(i);
    f.localGet(1);
    f.emit(Op::i32_lt_s);
    f.brIf(loop);
    f.end();
    f.end();
    f.localGet(acc);
    mb.exportFunc("run", f.finish());
    EngineConfig config;
    config.kind = EngineKind::interp_threaded;
    auto compiled =
        Engine(config).compileBytes(wasm::encodeModule(mb.build()));
    ASSERT_TRUE(compiled.isOk());
    const std::vector<uint8_t> blob =
        rt::serializeCompiledModule(*compiled.value());
    const wasm::LoweredFunc& func = compiled.value()->lowered().funcs[0];
    const auto* code = reinterpret_cast<const uint8_t*>(func.code.data());
    const size_t code_bytes = func.code.size() * sizeof(wasm::LInst);
    auto at = std::search(blob.begin(), blob.end(), code, code + code_bytes);
    ASSERT_NE(at, blob.end());
    const size_t base = size_t(at - blob.begin());

    auto form = [](wasm::IrForm want) {
        return [want](const wasm::LInst& inst) {
            return wasm::isFormOp(inst.op) && wasm::formOf(inst.op) == want;
        };
    };
    auto jump = [](const wasm::LInst& inst) {
        return inst.op == uint16_t(wasm::LOp::jump) ||
               inst.op == uint16_t(wasm::LOp::jump_if_zero);
    };
    const uint64_t cells = func.numCells;
    const uint64_t past_code = func.code.size();
    struct Corruption
    {
        const char* what;
        std::function<bool(const wasm::LInst&)> match;
        size_t offset;
        size_t width;
        uint64_t value;
    };
    const Corruption corruptions[] = {
        {"rr dst cell", form(wasm::IrForm::rr), offsetof(wasm::LInst, a), 4,
         cells},
        {"rr lhs cell", form(wasm::IrForm::rr), offsetof(wasm::LInst, b), 4,
         cells},
        {"rr rhs cell", form(wasm::IrForm::rr), offsetof(wasm::LInst, imm), 8,
         cells},
        {"jrr rhs cell", form(wasm::IrForm::jrr),
         offsetof(wasm::LInst, imm), 8, cells},
        {"jri lhs cell", form(wasm::IrForm::jri), offsetof(wasm::LInst, b), 4,
         cells},
        {"jri target", form(wasm::IrForm::jri), offsetof(wasm::LInst, a), 4,
         past_code},
        {"jrr target", form(wasm::IrForm::jrr), offsetof(wasm::LInst, a), 4,
         past_code},
        {"jump target", jump, offsetof(wasm::LInst, a), 4, past_code},
    };
    for (const Corruption& c : corruptions) {
        SCOPED_TRACE(c.what);
        size_t k = 0;
        while (k < func.code.size() && !c.match(func.code[k]))
            k++;
        ASSERT_LT(k, func.code.size()) << "no instruction to corrupt";
        std::vector<uint8_t> bad = blob;
        std::memcpy(&bad[base + k * sizeof(wasm::LInst) + c.offset], &c.value,
                    c.width);
        auto reloaded = rt::deserializeCompiledModule(bad.data(), bad.size());
        ASSERT_FALSE(reloaded.isOk());
        EXPECT_EQ(reloaded.status().code(), StatusCode::invalid_argument);
    }
    EXPECT_TRUE(rt::deserializeCompiledModule(blob.data(), blob.size()).isOk());
}

TEST(Serialize, OutOfRangePlainOperandsAreRejected)
{
    // Unoptimized IR keeps the plain stack ops: a copy, an add, a load, a
    // store, a select, a call of each kind, global accesses and a
    // jump_table. The executors index the frame with their cells (the JIT
    // as [r15 + 8 * cell]), call into the callee's frame at the argument
    // base and dispatch through the table pool, so each field pushed one
    // past its range must be refused.
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    uint32_t host = mb.addImport("env", "h", t);
    uint32_t g = mb.addGlobal(ValType::i32, true, Instr::constI32(0));
    mb.addTable(1, 1);
    auto& callee = mb.addFunction(t);
    callee.localGet(0);
    uint32_t callee_idx = callee.finish();
    mb.addElem(0, {callee_idx});
    auto& f = mb.addFunction(t);
    uint32_t tmp = f.addLocal(ValType::i32);
    f.localGet(0);
    f.localSet(tmp);
    f.localGet(tmp);
    f.localGet(0);
    f.emit(Op::i32_add);
    f.memOp(Op::i32_load, 4);
    f.localSet(tmp);
    f.localGet(0);
    f.localGet(tmp);
    f.memOp(Op::i32_store, 8);
    f.localGet(tmp);
    f.localGet(0);
    f.localGet(0);
    f.select();
    f.call(callee_idx);
    f.call(host);
    f.i32Const(0);
    f.callIndirect(t);
    f.globalSet(g);
    auto outer = f.block();
    auto inner = f.block();
    f.globalGet(g);
    f.brTable({inner}, outer);
    f.end();
    f.end();
    f.localGet(tmp);
    mb.exportFunc("run", f.finish());
    EngineConfig config;
    config.kind = EngineKind::interp_threaded;
    config.optimizeLoweredIR = false;
    auto compiled =
        Engine(config).compileBytes(wasm::encodeModule(mb.build()));
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    const std::vector<uint8_t> blob =
        rt::serializeCompiledModule(*compiled.value());
    const wasm::LoweredModule& lowered = compiled.value()->lowered();
    const wasm::LoweredFunc& func = lowered.funcs[1];
    const auto* code = reinterpret_cast<const uint8_t*>(func.code.data());
    const size_t code_bytes = func.code.size() * sizeof(wasm::LInst);
    auto at = std::search(blob.begin(), blob.end(), code, code + code_bytes);
    ASSERT_NE(at, blob.end());
    const size_t base = size_t(at - blob.begin());
    ASSERT_FALSE(func.tablePool.empty());
    const auto* pool = reinterpret_cast<const uint8_t*>(func.tablePool.data());
    auto pool_at = std::search(at + code_bytes, blob.end(), pool,
                               pool + func.tablePool.size() * 4);
    ASSERT_NE(pool_at, blob.end());

    auto op = [](uint16_t want) {
        return [want](const wasm::LInst& inst) { return inst.op == want; };
    };
    auto wasm_op = [&](Op want) { return op(uint16_t(want)); };
    auto lop = [&](wasm::LOp want) { return op(uint16_t(want)); };
    const uint64_t cells = func.numCells;
    struct Corruption
    {
        const char* what;
        std::function<bool(const wasm::LInst&)> match;
        size_t offset;
        size_t width;
        uint64_t value;
    };
    const size_t kA = offsetof(wasm::LInst, a);
    const size_t kB = offsetof(wasm::LInst, b);
    const size_t kAux = offsetof(wasm::LInst, aux);
    const Corruption corruptions[] = {
        {"copy src", lop(wasm::LOp::copy), kA, 4, cells},
        {"copy dst", lop(wasm::LOp::copy), kB, 4, cells},
        {"add lhs/result", wasm_op(Op::i32_add), kA, 4, cells},
        {"add rhs", wasm_op(Op::i32_add), kB, 4, cells},
        {"load address", wasm_op(Op::i32_load), kA, 4, cells},
        {"store address", wasm_op(Op::i32_store), kA, 4, cells},
        {"store value", wasm_op(Op::i32_store), kB, 4, cells},
        {"select third cell", wasm_op(Op::select), kA, 4, cells - 2},
        {"global index", wasm_op(Op::global_get), kB, 4,
         lowered.module.globals.size()},
        {"jump_table case count", lop(wasm::LOp::jump_table), kAux, 2,
         func.tablePool.size()},
        {"jump_table pool base", lop(wasm::LOp::jump_table), kA, 4,
         func.tablePool.size()},
        {"jump_table index cell", lop(wasm::LOp::jump_table), kB, 4, cells},
        {"callf arg base", lop(wasm::LOp::callf), kB, 4, cells},
        {"callf callee", lop(wasm::LOp::callf), kA, 4,
         lowered.module.numTotalFuncs()},
        {"call_host arg base", lop(wasm::LOp::call_host), kB, 4, cells},
        {"calli table-index cell", lop(wasm::LOp::calli), kB, 4, cells},
        {"calli type", lop(wasm::LOp::calli), kA, 4,
         lowered.module.types.size()},
    };
    for (const Corruption& c : corruptions) {
        SCOPED_TRACE(c.what);
        size_t k = 0;
        while (k < func.code.size() && !c.match(func.code[k]))
            k++;
        ASSERT_LT(k, func.code.size()) << "no instruction to corrupt";
        std::vector<uint8_t> bad = blob;
        std::memcpy(&bad[base + k * sizeof(wasm::LInst) + c.offset], &c.value,
                    c.width);
        auto reloaded = rt::deserializeCompiledModule(bad.data(), bad.size());
        ASSERT_FALSE(reloaded.isOk());
        EXPECT_EQ(reloaded.status().code(), StatusCode::invalid_argument);
    }
    {
        SCOPED_TRACE("jump_table pool entry");
        std::vector<uint8_t> bad = blob;
        uint32_t past_code = uint32_t(func.code.size());
        std::memcpy(&bad[size_t(pool_at - blob.begin())], &past_code, 4);
        auto reloaded = rt::deserializeCompiledModule(bad.data(), bad.size());
        ASSERT_FALSE(reloaded.isOk());
        EXPECT_EQ(reloaded.status().code(), StatusCode::invalid_argument);
    }
    EXPECT_TRUE(rt::deserializeCompiledModule(blob.data(), blob.size()).isOk());
}

// ---------------------------------------------------------------------
// The EngineConfig field table: serialization, cache key, env overrides
// ---------------------------------------------------------------------

TEST(EngineConfigTable, OptDisabledEnvClearsOptimizeAndKeysTheCache)
{
    TestModule tm = buildStateful();
    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.strategy = BoundsStrategy::trap;
    const uint64_t unset_key =
        svc::engineConfigFingerprint(rt::resolveEngineConfig(config));

    ::setenv("LNB_OPT_DISABLED", "1", 1);
    EngineConfig resolved = rt::resolveEngineConfig(config);
    auto compiled = Engine(config).compileBytes(tm.bytes);
    ::setenv("LNB_OPT_DISABLED", "0", 1);
    EngineConfig zero = rt::resolveEngineConfig(config);
    ::unsetenv("LNB_OPT_DISABLED");

    EXPECT_FALSE(resolved.optimizeLoweredIR);
    ASSERT_TRUE(compiled.isOk());
    EXPECT_FALSE(compiled.value()->config().optimizeLoweredIR);
    EXPECT_NE(svc::engineConfigFingerprint(resolved), unset_key);
    EXPECT_TRUE(zero.optimizeLoweredIR) << "flag convention: 0 is off";
}

bool otherValue(bool v) { return !v; }
uint32_t otherValue(uint32_t v) { return v + 1; }
EngineKind
otherValue(EngineKind v)
{
    return EngineKind((int(v) + 1) % rt::kNumEngineKinds);
}
BoundsStrategy
otherValue(BoundsStrategy v)
{
    return BoundsStrategy((int(v) + 1) % mem::kNumBoundsStrategies);
}

std::vector<uint8_t>
configBytes(const EngineConfig& config)
{
    wasm::ByteWriter w;
    rt::writeEngineConfig(config, w);
    return w.take();
}

/** One table row: a non-default value survives serialize/deserialize
 * and changes the cache key; an env row overrides when valid and warns
 * and keeps the config value when malformed. */
template <typename T>
void
checkConfigRow(const char* name, T EngineConfig::*field, const char* env,
               int64_t env_min, int64_t env_max)
{
    SCOPED_TRACE(name);
    const EngineConfig base;
    EngineConfig changed;
    changed.*field = otherValue(base.*field);

    std::vector<uint8_t> bytes = configBytes(changed);
    wasm::ByteReader r(bytes.data(), bytes.size());
    auto back = rt::readEngineConfig(r);
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(back.value().*field, changed.*field);
    EXPECT_EQ(configBytes(back.value()), bytes);
    EXPECT_NE(svc::engineConfigFingerprint(changed),
              svc::engineConfigFingerprint(base));

    if (env == nullptr)
        return;
    int64_t valid = int64_t(base.*field) == env_min ? env_max : env_min;
    ::setenv(env, std::to_string(valid).c_str(), 1);
    EXPECT_EQ(rt::resolveEngineConfig(base).*field, static_cast<T>(valid));

    ::setenv(env, "not-a-number", 1);
    testing::internal::CaptureStderr();
    T kept = rt::resolveEngineConfig(base).*field;
    std::string warning = testing::internal::GetCapturedStderr();
    ::unsetenv(env);
    EXPECT_EQ(kept, base.*field);
    EXPECT_NE(warning.find(env), std::string::npos) << "no warning";
}

TEST(EngineConfigTable, EveryRowRoundTripsKeysTheCacheAndParsesEnv)
{
#define LNB_CHECK_ROW(type, name, def, env, env_min, env_max)                 \
    checkConfigRow(#name, &EngineConfig::name, env, env_min, env_max);
    LNB_FOREACH_ENGINE_CONFIG_FIELD(LNB_CHECK_ROW)
#undef LNB_CHECK_ROW
}

class PersistCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char tmpl[] = "/tmp/lnb_snapshot_cache_XXXXXX";
        ASSERT_NE(mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        tm_ = buildStateful();
    }

    void TearDown() override
    {
        std::string cmd = "rm -rf " + dir_;
        (void)system(cmd.c_str());
    }

    std::string cacheFilePath(const EngineConfig& config) const
    {
        svc::ModuleKey key{
            svc::contentHash64(tm_.bytes.data(), tm_.bytes.size()),
            svc::engineConfigFingerprint(rt::resolveEngineConfig(config))};
        char name[64];
        std::snprintf(name, sizeof name, "/%016llx-%016llx.lnbc",
                      static_cast<unsigned long long>(key.bytesHash),
                      static_cast<unsigned long long>(key.configHash));
        return dir_ + name;
    }

    std::string dir_;
    TestModule tm_;
};

TEST_F(PersistCacheTest, SecondCacheLoadsFromDisk)
{
    EngineConfig config;
    {
        svc::ModuleCache cache(8, dir_.c_str());
        auto r = cache.getOrCompile(tm_.bytes, config);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
        EXPECT_EQ(cache.stats().persistMisses, 1u);
        EXPECT_EQ(cache.stats().persistHits, 0u);
    }
    struct stat st;
    ASSERT_EQ(stat(cacheFilePath(config).c_str(), &st), 0)
        << "artifact not persisted";

    svc::ModuleCache cache(8, dir_.c_str());
    auto r = cache.getOrCompile(tm_.bytes, config);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(cache.stats().persistHits, 1u);
    EXPECT_EQ(cache.stats().persistRejects, 0u);
    auto inst = Instance::create(r.takeValue());
    ASSERT_TRUE(inst.isOk()) << inst.status().toString();
    EXPECT_EQ(callI32(*inst.value(), "peek", {Value::fromI32(128)}),
              int32_t(0xdeadbeef));
}

TEST_F(PersistCacheTest, CorruptTruncatedAndStaleFilesAreRejected)
{
    EngineConfig config;
    {
        svc::ModuleCache cache(8, dir_.c_str());
        ASSERT_TRUE(cache.getOrCompile(tm_.bytes, config).isOk());
    }
    std::string path = cacheFilePath(config);

    auto mutate_and_expect_reject = [&](auto mutator, const char* what) {
        mutator();
        svc::ModuleCache cache(8, dir_.c_str());
        auto r = cache.getOrCompile(tm_.bytes, config);
        ASSERT_TRUE(r.isOk()) << what << ": " << r.status().toString();
        EXPECT_EQ(cache.stats().persistRejects, 1u) << what;
        EXPECT_EQ(cache.stats().persistHits, 0u) << what;
        // The reject recompiled and overwrote: a fresh cache hits again.
        svc::ModuleCache again(8, dir_.c_str());
        ASSERT_TRUE(again.getOrCompile(tm_.bytes, config).isOk());
        EXPECT_EQ(again.stats().persistHits, 1u) << what;
    };

    // Corrupt one payload byte (payload hash mismatch).
    mutate_and_expect_reject(
        [&] {
            FILE* f = fopen(path.c_str(), "r+b");
            ASSERT_NE(f, nullptr);
            ASSERT_EQ(fseek(f, 64, SEEK_SET), 0);
            int c = fgetc(f);
            ASSERT_EQ(fseek(f, 64, SEEK_SET), 0);
            fputc(c ^ 0xff, f);
            fclose(f);
        },
        "corrupt payload");

    // Truncate below the header size.
    mutate_and_expect_reject(
        [&] { ASSERT_EQ(truncate(path.c_str(), 10), 0); },
        "truncated file");

    // Stale build id (another binary's artifact).
    mutate_and_expect_reject(
        [&] {
            FILE* f = fopen(path.c_str(), "r+b");
            ASSERT_NE(f, nullptr);
            // buildId occupies header bytes [8, 16).
            ASSERT_EQ(fseek(f, 8, SEEK_SET), 0);
            uint64_t bogus = svc::moduleCacheBuildId() + 1;
            fwrite(&bogus, sizeof bogus, 1, f);
            fclose(f);
        },
        "stale build id");
}

TEST_F(PersistCacheTest, DifferentConfigUsesDifferentFile)
{
    EngineConfig a;
    EngineConfig b;
    b.strategy = BoundsStrategy::trap;
    {
        svc::ModuleCache cache(8, dir_.c_str());
        ASSERT_TRUE(cache.getOrCompile(tm_.bytes, a).isOk());
    }
    svc::ModuleCache cache(8, dir_.c_str());
    auto r = cache.getOrCompile(tm_.bytes, b);
    ASSERT_TRUE(r.isOk());
    // No hit, no reject: config b's key never matches config a's file.
    EXPECT_EQ(cache.stats().persistHits, 0u);
    EXPECT_EQ(cache.stats().persistRejects, 0u);
    EXPECT_EQ(cache.stats().persistMisses, 1u);
    EXPECT_NE(cacheFilePath(a), cacheFilePath(b));
}

TEST_F(PersistCacheTest, CrossProcessReload)
{
    EngineConfig config;
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: compile and persist, then exit without running gtest
        // teardown (the parent owns the fixture).
        svc::ModuleCache cache(8, dir_.c_str());
        auto r = cache.getOrCompile(tm_.bytes, config);
        _exit(r.isOk() && cache.stats().persistMisses == 1 ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    // Parent: a different process reloads the child's artifact.
    svc::ModuleCache cache(8, dir_.c_str());
    bool was_hit = true;
    auto r = cache.getOrCompile(tm_.bytes, config, &was_hit);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_FALSE(was_hit); // in-memory miss...
    EXPECT_EQ(cache.stats().persistHits, 1u); // ...served from disk
    auto inst = Instance::create(r.takeValue());
    ASSERT_TRUE(inst.isOk()) << inst.status().toString();
    EXPECT_EQ(callI32(*inst.value(), "gget"), 7 + int32_t(0x04030201));
}

} // namespace
} // namespace lnb
