/**
 * @file
 * Compilation-pipeline microbenchmarks (google-benchmark): decode,
 * validate, lower and JIT-compile throughput on a representative module
 * (gemm). The paper's runtimes trade compile speed for run speed
 * (§2.2 interpreters vs JIT vs AOT); these numbers quantify our tiers.
 */
#include <benchmark/benchmark.h>

#include "jit/compiler.h"
#include "kernels/kernel.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/lower.h"
#include "wasm/opt.h"
#include "wasm/validator.h"

namespace {

using namespace lnb;

const std::vector<uint8_t>&
gemmBytes()
{
    static const std::vector<uint8_t> bytes = [] {
        const kernels::Kernel* kernel = kernels::findKernel("gemm");
        return wasm::encodeModule(kernel->buildModule(1));
    }();
    return bytes;
}

void
BM_Decode(benchmark::State& state)
{
    for (auto _ : state) {
        auto module = wasm::decodeModule(gemmBytes());
        benchmark::DoNotOptimize(module.isOk());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(gemmBytes().size()));
}
BENCHMARK(BM_Decode);

void
BM_Validate(benchmark::State& state)
{
    auto module = wasm::decodeModule(gemmBytes()).takeValue();
    for (auto _ : state) {
        Status status = wasm::validateModule(module);
        benchmark::DoNotOptimize(status.isOk());
    }
}
BENCHMARK(BM_Validate);

void
BM_Lower(benchmark::State& state)
{
    auto module = wasm::decodeModule(gemmBytes()).takeValue();
    for (auto _ : state) {
        wasm::Module copy = module;
        auto lowered = wasm::lowerModule(std::move(copy));
        benchmark::DoNotOptimize(lowered.isOk());
    }
}
BENCHMARK(BM_Lower);

/** The jit-opt x trap transforms: bounds-check analysis + loop
 * versioning ahead of the register-form rewrite, the memory-base pin and
 * the local-home allocation after it. */
wasm::OptOptions
checkAnalysis()
{
    wasm::OptOptions options;
    options.analyzeChecks = true;
    options.versionLoops = true;
    options.optimizingJit = true;
    return options;
}

/**
 * The lowered-IR optimization pass (wasm/opt.*): /0 is the register-form
 * rewrite alone, which every executor runs; /1 adds what jit-opt runs
 * around it under the trap strategy (bounds-check analysis, loop
 * versioning, the memory-base pin and the local-home allocation), so
 * /1 - /0 is their cost. Counters report what the
 * pass did to the kernel (insts_fused: the instructions the rewrite
 * removed), so its coverage is visible alongside the stage's throughput.
 */
void
BM_OptPass(benchmark::State& state)
{
    auto module = wasm::decodeModule(gemmBytes()).takeValue();
    auto lowered = wasm::lowerModule(std::move(module)).takeValue();
    wasm::OptOptions options;
    if (state.range(0) == 1)
        options = checkAnalysis();
    wasm::OptStats stats;
    for (auto _ : state) {
        wasm::LoweredModule copy = lowered;
        stats = wasm::optimizeLoweredModule(copy, options);
        benchmark::DoNotOptimize(copy.funcs.data());
    }
    state.SetLabel(state.range(0) == 1 ? "jit-opt-trap"
                                       : "register-form");
    state.counters["insts_fused"] = double(stats.instsFused);
    state.counters["checks_elided"] = double(stats.checksElided);
    state.counters["loops_versioned"] = double(stats.loopsVersioned);
}
BENCHMARK(BM_OptPass)->Arg(0)->Arg(1);

/**
 * JIT codegen of the IR BM_OptPass/1 produces, under `trap`: the path
 * that consults the pass's check skip lists, so the two benchmarks
 * compare the analysis with the codegen it feeds.
 */
void
BM_JitCompile(benchmark::State& state)
{
    auto module = wasm::decodeModule(gemmBytes()).takeValue();
    auto lowered = wasm::lowerModule(std::move(module)).takeValue();
    wasm::optimizeLoweredModule(lowered, checkAnalysis());
    std::unique_ptr<exec::FuncCode[]> table(new exec::FuncCode[
        lowered.module.numImportedFuncs() + lowered.funcs.size()]);
    jit::JitOptions options;
    options.strategy = mem::BoundsStrategy::trap;
    options.codeTable = table.get();
    size_t code_bytes = 0;
    for (auto _ : state) {
        auto code = jit::compileModule(lowered, options);
        if (code.isOk())
            code_bytes = code.value()->codeBytes();
        benchmark::DoNotOptimize(code.isOk());
    }
    state.SetLabel("check-analysed IR, trap");
    state.counters["code_bytes"] = double(code_bytes);
}
BENCHMARK(BM_JitCompile);

/**
 * Call dispatch through the per-function code table (the tiered-execution
 * calling convention) on a call-saturated workload: run(n) makes 2n calls
 * — one direct, one indirect through the funcref table — to a trivial
 * callee, so nearly all time is loading a FuncCode slot and calling it
 * with the function index in edx.
 */
void
BM_TierDispatch(benchmark::State& state)
{
    wasm::ModuleBuilder mb;
    mb.addTable(1);
    uint32_t unary = mb.addType({wasm::ValType::i32}, {wasm::ValType::i32});
    auto& add1 = mb.addFunction(unary);
    add1.localGet(0);
    add1.i32Const(1);
    add1.emit(wasm::Op::i32_add);
    uint32_t add1_idx = add1.finish();
    mb.addElem(0, {add1_idx});

    auto& run = mb.addFunction(
        mb.addType({wasm::ValType::i32}, {wasm::ValType::i32}));
    uint32_t i = run.addLocal(wasm::ValType::i32);
    uint32_t s = run.addLocal(wasm::ValType::i32);
    auto exit = run.block();
    run.localGet(0);
    run.emit(wasm::Op::i32_eqz);
    run.brIf(exit);
    auto head = run.loop();
    run.localGet(s);
    run.call(add1_idx);
    run.i32Const(0);
    run.callIndirect(unary);
    run.localSet(s);
    run.localGet(i);
    run.i32Const(1);
    run.emit(wasm::Op::i32_add);
    run.localSet(i);
    run.localGet(i);
    run.localGet(0);
    run.emit(wasm::Op::i32_lt_u);
    run.brIf(head);
    run.end();
    run.end();
    run.localGet(s);
    mb.exportFunc("run", run.finish());

    rt::EngineConfig config;
    config.kind = rt::EngineKind::jit_base;
    config.strategy = mem::BoundsStrategy::none;
    auto compiled = rt::Engine(config).compile(mb.build());
    if (!compiled.isOk()) {
        state.SkipWithError(compiled.status().toString().c_str());
        return;
    }
    auto instance = rt::Instance::create(compiled.takeValue());
    if (!instance.isOk()) {
        state.SkipWithError(instance.status().toString().c_str());
        return;
    }

    constexpr int32_t kLoops = 65536;
    std::vector<wasm::Value> args = {wasm::Value::fromI32(kLoops)};
    for (auto _ : state) {
        rt::CallOutcome out = instance.value()->callExport("run", args);
        if (!out.ok()) {
            state.SkipWithError("run trapped");
            return;
        }
        benchmark::DoNotOptimize(out.results[0].i32);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * kLoops * 2);
}
BENCHMARK(BM_TierDispatch);

} // namespace

BENCHMARK_MAIN();
