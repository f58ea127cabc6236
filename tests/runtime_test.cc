/**
 * @file
 * Runtime-layer tests: engine/strategy registries, compile statistics,
 * import binding errors, value-stack limits, and the WASI-lite host
 * functions.
 */
#include <gtest/gtest.h>

#include <malloc.h>

#include <cstdlib>
#include <string>

#include "runtime/engine.h"
#include "runtime/instance.h"
#include "runtime/wasi.h"
#include "wasm/encoder.h"
#include "wasm/builder.h"

namespace lnb::rt {
namespace {

using mem::BoundsStrategy;
using wasm::Op;
using wasm::ValType;
using wasm::Value;

TEST(Registries, EngineNamesRoundTrip)
{
    for (int i = 0; i < kNumEngineKinds; i++) {
        EngineKind kind = EngineKind(i);
        EngineKind parsed;
        ASSERT_TRUE(engineKindFromName(engineKindName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    EngineKind out;
    EXPECT_FALSE(engineKindFromName("v8", out));
}

TEST(Registries, StrategyNamesRoundTrip)
{
    for (int i = 0; i < mem::kNumBoundsStrategies; i++) {
        BoundsStrategy strategy = BoundsStrategy(i);
        BoundsStrategy parsed;
        ASSERT_TRUE(boundsStrategyFromName(boundsStrategyName(strategy),
                                           parsed));
        EXPECT_EQ(parsed, strategy);
    }
    BoundsStrategy out;
    EXPECT_FALSE(boundsStrategyFromName("mpx", out));
}

wasm::Module
trivialModule()
{
    wasm::ModuleBuilder mb;
    uint32_t t = mb.addType({}, {ValType::i32});
    auto& f = mb.addFunction(t);
    f.i32Const(5);
    uint32_t idx = f.finish();
    mb.exportFunc("five", idx);
    return mb.build();
}

TEST(Engine, CompileStatsPopulated)
{
    Engine engine(EngineConfig{});
    auto bytes = wasm::encodeModule(trivialModule());
    auto compiled = engine.compileBytes(bytes);
    ASSERT_TRUE(compiled.isOk());
    const CompileStats& stats = compiled.value()->stats();
    EXPECT_GT(stats.codeBytes, 0u); // default engine is a JIT
    EXPECT_GE(stats.decodeSeconds, 0.0);
}

TEST(Engine, RejectsInvalidModule)
{
    wasm::Module module = trivialModule();
    module.bodies[0].code.clear();
    module.bodies[0].code.push_back(wasm::Instr::simple(Op::end));
    // Function promises an i32 but returns nothing.
    Engine engine(EngineConfig{});
    auto compiled = engine.compile(std::move(module));
    EXPECT_FALSE(compiled.isOk());
    EXPECT_EQ(compiled.status().code(), StatusCode::validation_failed);
}

TEST(Instance, MissingImportIsAnError)
{
    wasm::ModuleBuilder mb;
    uint32_t t = mb.addType({}, {});
    mb.addImport("env", "absent", t);
    auto& f = mb.addFunction(t);
    uint32_t idx = f.finish();
    mb.exportFunc("noop", idx);

    Engine engine(EngineConfig{});
    auto compiled = engine.compile(mb.build());
    ASSERT_TRUE(compiled.isOk());
    auto inst = Instance::create(compiled.takeValue());
    EXPECT_FALSE(inst.isOk());
}

TEST(Instance, ImportTypeMismatchIsAnError)
{
    wasm::ModuleBuilder mb;
    uint32_t t = mb.addType({ValType::i32}, {});
    mb.addImport("env", "f", t);
    auto& f = mb.addFunction(mb.addType({}, {}));
    uint32_t idx = f.finish();
    mb.exportFunc("noop", idx);

    Engine engine(EngineConfig{});
    auto compiled = engine.compile(mb.build());
    ASSERT_TRUE(compiled.isOk());
    ImportMap imports;
    imports.add("env", "f", wasm::FuncType{{ValType::i64}, {}},
                [](exec::InstanceContext*, Value*, void*) {});
    auto inst = Instance::create(compiled.takeValue(),
                                 std::move(imports));
    EXPECT_FALSE(inst.isOk());
}

/** A function with @p num_locals i64 locals that bumps global "depth"
 * and calls itself forever. */
std::vector<uint8_t>
runawayRecursionModule(uint32_t num_locals)
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t depth = mb.addGlobal(ValType::i32, true,
                                  wasm::Instr::constI32(0));
    uint32_t void_t = mb.addType({}, {});
    auto& rec = mb.addFunction(void_t);
    for (uint32_t i = 0; i < num_locals; i++)
        rec.addLocal(ValType::i64);
    rec.globalGet(depth);
    rec.i32Const(1);
    rec.emit(Op::i32_add);
    rec.globalSet(depth);
    rec.call(0); // no imports: this function is index 0
    mb.exportFunc("rec", rec.finish());
    auto& get = mb.addFunction(mb.addType({}, {ValType::i32}));
    get.globalGet(depth);
    mb.exportFunc("depth", get.finish());
    return wasm::encodeModule(mb.build());
}

TEST(Instance, SmallValueStackTrapsStackOverflowInEveryEngine)
{
    // 64 locals per frame on a 4096-cell stack overflow within 64 calls,
    // far below maxCallDepth. The explicit vstackEnd check must trap
    // before any access leaves the stack's mapping: a fault there is not
    // in a linear memory, so the SIGSEGV handler would re-raise it and
    // kill the process.
    constexpr uint32_t kCells = 4096;
    constexpr uint32_t kLocals = 64;
    const std::vector<uint8_t> bytes = runawayRecursionModule(kLocals);
    struct EngineCase
    {
        EngineKind kind;
        bool tiered;
    };
    const EngineCase engines[] = {
        {EngineKind::interp_switch, false},
        {EngineKind::interp_threaded, false},
        {EngineKind::jit_base, false},
        {EngineKind::jit_opt, false},
        {EngineKind::jit_opt, true},
    };
    for (const EngineCase& ec : engines) {
        for (int s = 0; s < mem::kNumBoundsStrategies; s++) {
            EngineConfig config;
            config.kind = ec.kind;
            config.tiered = ec.tiered;
            config.strategy = BoundsStrategy(s);
            config.valueStackCells = kCells;
            SCOPED_TRACE(std::string(engineKindName(ec.kind)) +
                         (ec.tiered ? "+tiered/" : "/") +
                         boundsStrategyName(config.strategy));
            auto compiled = Engine(config).compileBytes(bytes);
            ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
            auto inst = Instance::create(compiled.takeValue());
            ASSERT_TRUE(inst.isOk()) << inst.status().toString();

            CallOutcome out = inst.value()->callExport("rec", {});
            EXPECT_EQ(out.trap, wasm::TrapKind::stack_overflow)
                << wasm::trapKindName(out.trap);
            CallOutcome depth = inst.value()->callExport("depth", {});
            ASSERT_TRUE(depth.ok());
            EXPECT_GT(depth.results[0].i32, 0u);
            EXPECT_LE(depth.results[0].i32, kCells / kLocals);
            EXPECT_LT(depth.results[0].i32, config.maxCallDepth);
        }
    }
}

#ifdef __GLIBC__
TEST(Instance, ValueStackLeavesMallocMmapThresholdAlone)
{
#ifdef __SANITIZE_ADDRESS__
    GTEST_SKIP() << "ASan replaces malloc; glibc's mmap threshold is not "
                    "in play";
#else
    // glibc raises its dynamic mmap threshold to the size of any mmapped
    // chunk that is freed. If destroying an instance freed its 8 MiB
    // value stack through free(), every later block below 8 MiB would
    // come from the brk heap. The threadsafe death-test style re-executes
    // the binary, so no earlier test's frees have moved the threshold.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            {
                auto compiled = Engine(EngineConfig{}).compileBytes(
                    wasm::encodeModule(trivialModule()));
                if (!compiled.isOk() ||
                    !Instance::create(compiled.takeValue()).isOk()) {
                    std::_Exit(2);
                }
            }
            size_t before = mallinfo2().hblkhd;
            // volatile: GCC drops a malloc whose only use is free.
            void* volatile block = std::malloc(1 << 20);
            bool mmapped = mallinfo2().hblkhd > before;
            std::free(block);
            std::_Exit(mmapped ? 0 : 1);
        },
        testing::ExitedWithCode(0), "");
#endif
}
#endif

TEST(Instance, StartFunctionRuns)
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t void_t = mb.addType({}, {});
    auto& start = mb.addFunction(void_t);
    start.i32Const(0);
    start.i32Const(1234);
    start.memOp(Op::i32_store);
    uint32_t start_idx = start.finish();
    mb.setStart(start_idx);

    uint32_t read_t = mb.addType({}, {ValType::i32});
    auto& read = mb.addFunction(read_t);
    read.i32Const(0);
    read.memOp(Op::i32_load);
    uint32_t read_idx = read.finish();
    mb.exportFunc("read", read_idx);

    Engine engine(EngineConfig{});
    auto compiled = engine.compile(mb.build());
    ASSERT_TRUE(compiled.isOk());
    auto inst = Instance::create(compiled.takeValue());
    ASSERT_TRUE(inst.isOk()) << inst.status().toString();
    CallOutcome out = inst.value()->callExport("read", {});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].i32, 1234u);
}

// ---------------------------------------------------------------------
// WASI-lite
// ---------------------------------------------------------------------

/** Module calling fd_write(1, iovec{ptr,len}, 1, nwritten). */
wasm::Module
helloWasiModule(const std::string& text)
{
    wasm::ModuleBuilder mb;
    uint32_t fd_write_t = mb.addType(
        {ValType::i32, ValType::i32, ValType::i32, ValType::i32},
        {ValType::i32});
    uint32_t fd_write =
        mb.addImport("wasi_snapshot_preview1", "fd_write", fd_write_t);
    mb.addMemory(1, 1);
    std::vector<uint8_t> data(text.begin(), text.end());
    mb.addData(64, data);

    auto& f = mb.addFunction(mb.addType({}, {ValType::i32}));
    // iovec at 16: {buf=64, len=text.size()}
    f.i32Const(16);
    f.i32Const(64);
    f.memOp(Op::i32_store);
    f.i32Const(20);
    f.i32Const(int32_t(text.size()));
    f.memOp(Op::i32_store);
    f.i32Const(1);  // fd
    f.i32Const(16); // iovs
    f.i32Const(1);  // iovs_len
    f.i32Const(32); // nwritten ptr
    f.call(fd_write);
    f.drop();
    // return nwritten
    f.i32Const(32);
    f.memOp(Op::i32_load);
    uint32_t idx = f.finish();
    mb.exportFunc("say", idx);
    return mb.build();
}

TEST(Wasi, FdWriteCapturesOutput)
{
    Wasi::Options options;
    options.captureOutput = true;
    Wasi wasi(options);

    Engine engine(EngineConfig{});
    auto compiled = engine.compile(helloWasiModule("hello, wasi\n"));
    ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
    auto inst = Instance::create(compiled.takeValue(), wasi.imports());
    ASSERT_TRUE(inst.isOk()) << inst.status().toString();

    CallOutcome out = inst.value()->callExport("say", {});
    ASSERT_TRUE(out.ok()) << trapKindName(out.trap);
    EXPECT_EQ(out.results[0].i32, 12u);
    EXPECT_EQ(wasi.capturedOutput(), "hello, wasi\n");
}

TEST(Wasi, ProcExitRecordsCode)
{
    Wasi wasi;
    wasm::ModuleBuilder mb;
    uint32_t exit_t = mb.addType({ValType::i32}, {});
    uint32_t proc_exit =
        mb.addImport("wasi_snapshot_preview1", "proc_exit", exit_t);
    mb.addMemory(1, 1);
    auto& f = mb.addFunction(mb.addType({}, {}));
    f.i32Const(42);
    f.call(proc_exit);
    uint32_t idx = f.finish();
    mb.exportFunc("die", idx);

    Engine engine(EngineConfig{});
    auto compiled = engine.compile(mb.build());
    ASSERT_TRUE(compiled.isOk());
    auto inst = Instance::create(compiled.takeValue(), wasi.imports());
    ASSERT_TRUE(inst.isOk());

    CallOutcome out = inst.value()->callExport("die", {});
    EXPECT_FALSE(out.ok()); // surfaced as a host trap...
    ASSERT_TRUE(wasi.exitCode().has_value());
    EXPECT_EQ(*wasi.exitCode(), 42u); // ...with the code recorded
}

TEST(Wasi, RandomGetIsDeterministicPerSeed)
{
    auto run = [](uint64_t seed) {
        Wasi::Options options;
        options.randomSeed = seed;
        Wasi wasi(options);
        wasm::ModuleBuilder mb;
        uint32_t rand_t =
            mb.addType({ValType::i32, ValType::i32}, {ValType::i32});
        uint32_t random_get = mb.addImport("wasi_snapshot_preview1",
                                           "random_get", rand_t);
        mb.addMemory(1, 1);
        auto& f = mb.addFunction(mb.addType({}, {ValType::i64}));
        f.i32Const(0);
        f.i32Const(8);
        f.call(random_get);
        f.drop();
        f.i32Const(0);
        f.memOp(Op::i64_load);
        uint32_t idx = f.finish();
        mb.exportFunc("rand64", idx);

        Engine engine(EngineConfig{});
        auto compiled = engine.compile(mb.build());
        auto inst =
            Instance::create(compiled.takeValue(), wasi.imports());
        return inst.value()->callExport("rand64", {}).results[0].i64;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

TEST(Wasi, ArgsRoundTrip)
{
    Wasi::Options options;
    options.args = {"prog", "alpha", "beta"};
    Wasi wasi(options);
    wasm::ModuleBuilder mb;
    uint32_t two_i32 =
        mb.addType({ValType::i32, ValType::i32}, {ValType::i32});
    uint32_t args_sizes = mb.addImport("wasi_snapshot_preview1",
                                       "args_sizes_get", two_i32);
    uint32_t args_get =
        mb.addImport("wasi_snapshot_preview1", "args_get", two_i32);
    mb.addMemory(1, 1);
    auto& f = mb.addFunction(mb.addType({}, {ValType::i32}));
    f.i32Const(0); // argc at 0
    f.i32Const(4); // buf size at 4
    f.call(args_sizes);
    f.drop();
    f.i32Const(16);  // argv array
    f.i32Const(128); // argv buffer
    f.call(args_get);
    f.drop();
    // return argc * 1000 + first byte of argv[1]
    f.i32Const(0);
    f.memOp(Op::i32_load);
    f.i32Const(1000);
    f.emit(Op::i32_mul);
    f.i32Const(20); // argv[1] pointer slot
    f.memOp(Op::i32_load);
    f.memOp(Op::i32_load8_u);
    f.emit(Op::i32_add);
    uint32_t idx = f.finish();
    mb.exportFunc("probe", idx);

    Engine engine(EngineConfig{});
    auto compiled = engine.compile(mb.build());
    ASSERT_TRUE(compiled.isOk());
    auto inst = Instance::create(compiled.takeValue(), wasi.imports());
    ASSERT_TRUE(inst.isOk()) << inst.status().toString();
    CallOutcome out = inst.value()->callExport("probe", {});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].i32, 3000u + 'a');
}

} // namespace
} // namespace lnb::rt
