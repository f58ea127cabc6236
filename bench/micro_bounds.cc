/**
 * @file
 * Microbenchmarks (google-benchmark) isolating the strategy costs the
 * figure-level benches aggregate (paper §2.3 / §6 ablations):
 *
 *  - per-access cost of each check shape in generated code,
 *  - the memory.grow path (mprotect syscall vs atomic bounds bump),
 *  - instance creation/teardown churn,
 *  - raw mprotect(2) cost on an 8 GiB reservation and page-fault
 *    population cost (calibrates simkernel's MmCostModel).
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <sys/mman.h>

#include "kernels/dsl.h"
#include "kernels/kernel.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "wasm/opt.h"

namespace {

using namespace lnb;
using kernels::Kb;
using kernels::KernelModule;
using mem::BoundsStrategy;
using rt::EngineKind;
using wasm::Op;
using wasm::ValType;

/**
 * Arg 0 = off, arg 1 = on, 40 repetitions each, reported by the fastest
 * repetition. main() interleaves the repetitions of both arms, so the
 * vCPU's ~1.9x speed states hit both alike instead of deciding the
 * ratio.
 */
void
ablationPair(benchmark::internal::Benchmark* b)
{
    b->Arg(0)
        ->Arg(1)
        ->Unit(benchmark::kMicrosecond)
        ->Repetitions(40)
        ->DisplayAggregatesOnly(true)
        ->ComputeStatistics("min", [](const std::vector<double>& v) {
            return *std::min_element(v.begin(), v.end());
        });
}

/** Tight load/store loop: out[i] = in[i] + in[i^1], 64K elements. */
wasm::Module
loadStoreModule()
{
    constexpr int kCount = 1 << 16;
    KernelModule km(uint64_t(kCount) * 8 * 2);
    Kb kb(*km.fb);
    auto& f = kb.f;
    uint32_t i = kb.i32(), acc = kb.f64();
    uint32_t in_base = 0, out_base = kCount * 8;

    kb.forRange(i, 0, kCount, [&] {
        kb.stF64(in_base, [&] { f.localGet(i); }, [&] {
            f.localGet(i);
            f.emit(Op::f64_convert_i32_s);
        });
    });
    kb.forRange(i, 0, kCount, [&] {
        kb.stF64(out_base, [&] { f.localGet(i); }, [&] {
            kb.ldF64(in_base, [&] { f.localGet(i); });
            kb.ldF64(in_base, [&] {
                f.localGet(i);
                f.i32Const(1);
                f.emit(Op::i32_xor);
            });
            f.emit(Op::f64_add);
        });
    });
    kb.sumArrayF64(acc, i, out_base, 1024);
    f.localGet(acc);
    return km.finish();
}

std::unique_ptr<rt::Instance>
makeInstance(EngineKind kind, BoundsStrategy strategy, wasm::Module module)
{
    rt::EngineConfig config;
    config.kind = kind;
    config.strategy = strategy;
    rt::Engine engine(config);
    auto compiled = engine.compile(std::move(module));
    if (!compiled.isOk())
        return nullptr;
    auto inst = rt::Instance::create(compiled.takeValue());
    return inst.isOk() ? inst.takeValue() : nullptr;
}

void
BM_JitLoadStore(benchmark::State& state)
{
    auto strategy = BoundsStrategy(state.range(0));
    auto inst = makeInstance(EngineKind::jit_base, strategy,
                             loadStoreModule());
    if (!inst) {
        state.SkipWithError("instance creation failed");
        return;
    }
    for (auto _ : state) {
        rt::CallOutcome out = inst->callExport("run", {});
        benchmark::DoNotOptimize(out.results);
    }
    state.SetLabel(boundsStrategyName(strategy));
    state.SetItemsProcessed(int64_t(state.iterations()) * (3 << 16));
}
BENCHMARK(BM_JitLoadStore)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

void
BM_JitOptLoadStore(benchmark::State& state)
{
    auto strategy = BoundsStrategy(state.range(0));
    auto inst = makeInstance(EngineKind::jit_opt, strategy,
                             loadStoreModule());
    if (!inst) {
        state.SkipWithError("instance creation failed");
        return;
    }
    for (auto _ : state) {
        rt::CallOutcome out = inst->callExport("run", {});
        benchmark::DoNotOptimize(out.results);
    }
    state.SetLabel(boundsStrategyName(strategy));
}
BENCHMARK(BM_JitOptLoadStore)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMicrosecond);

/**
 * The gemm beta-scale phase (PolyBench) as a standalone loop kernel:
 * C[i] *= beta over one f64 row — a read-modify-write loop whose load
 * and store hit the same address through different cells. Exercises the
 * opt pass's value-numbered check elision.
 */
wasm::Module
rmwScaleModule(int count)
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({}, {ValType::i32});
    auto& f = mb.addFunction(t);
    uint32_t i = f.addLocal(ValType::i32);
    auto exit = f.block();
    auto head = f.loop();
    f.localGet(i);
    f.i32Const(3);
    f.emit(Op::i32_shl); // byte offset = i * 8
    f.localGet(i);
    f.i32Const(3);
    f.emit(Op::i32_shl);
    f.memOp(Op::f64_load, 0);
    f.f64Const(1.0000001);
    f.emit(Op::f64_mul);
    f.memOp(Op::f64_store, 0);
    f.localGet(i);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(i);
    f.i32Const(count);
    f.emit(Op::i32_lt_s);
    f.brIf(head);
    f.end(); // loop
    f.end(); // block
    (void)exit;
    f.localGet(i);
    mb.exportFunc("run", f.finish());
    return mb.build();
}

std::unique_ptr<rt::Instance>
makeInstanceOpt(EngineKind kind, BoundsStrategy strategy,
                wasm::Module module, bool optimize,
                wasm::OptStats* opt_stats, size_t* lowered_insts)
{
    rt::EngineConfig config;
    config.kind = kind;
    config.strategy = strategy;
    config.optimizeLoweredIR = optimize;
    rt::Engine engine(config);
    auto compiled = engine.compile(std::move(module));
    if (!compiled.isOk())
        return nullptr;
    if (opt_stats)
        *opt_stats = compiled.value()->optStats();
    if (lowered_insts) {
        *lowered_insts = 0;
        for (const auto& func : compiled.value()->lowered().funcs)
            *lowered_insts += func.code.size();
    }
    auto inst = rt::Instance::create(compiled.takeValue());
    return inst.isOk() ? inst.takeValue() : nullptr;
}

/**
 * Ablation for the lowered-IR opt pass on the RMW kernel, jit-opt x
 * trap: arg 0 = pass disabled, arg 1 = enabled. The reported
 * checks_emitted counter is the registry delta around compilation; the
 * acceptance criterion is a >= 30% drop with the pass on.
 */
void
BM_OptCheckElim(benchmark::State& state)
{
    bool optimize = state.range(0) != 0;
    constexpr int kCount = 1 << 13; // 8192 f64 == one 64 KiB page
    obs::Counter emitted =
        obs::registerCounter("jit.bounds_checks_emitted");
    uint64_t emitted_delta = 0;
    wasm::OptStats opt_stats;
    std::unique_ptr<rt::Instance> inst;
    for (auto _ : state) {
        uint64_t before = emitted.value();
        inst = makeInstanceOpt(EngineKind::jit_opt, BoundsStrategy::trap,
                               rmwScaleModule(kCount), optimize,
                               &opt_stats, nullptr);
        if (!inst) {
            state.SkipWithError("instance creation failed");
            return;
        }
        emitted_delta = emitted.value() - before;
        rt::CallOutcome out = inst->callExport("run", {});
        benchmark::DoNotOptimize(out.results);
    }
    state.counters["checks_emitted"] = double(emitted_delta);
    state.counters["checks_elided"] = double(opt_stats.checksElided);
    state.SetLabel(optimize ? "opt-pass on" : "opt-pass off");
}
BENCHMARK(BM_OptCheckElim)->Apply(ablationPair);

std::unique_ptr<rt::Instance>
makeInstanceCfg(const rt::EngineConfig& config, wasm::Module module,
                wasm::OptStats* opt_stats)
{
    rt::Engine engine(config);
    auto compiled = engine.compile(std::move(module));
    if (!compiled.isOk())
        return nullptr;
    if (opt_stats)
        *opt_stats = compiled.value()->optStats();
    auto inst = rt::Instance::create(compiled.takeValue());
    return inst.isOk() ? inst.takeValue() : nullptr;
}

/** The RMW scale kernel in the versioner's counted-loop form (unsigned
 * bottom test, addresses affine in i): C[i] *= beta. */
wasm::Module
affineRmwModule(int count)
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({}, {ValType::i32});
    auto& f = mb.addFunction(t);
    uint32_t i = f.addLocal(ValType::i32);
    auto head = f.loop();
    f.localGet(i);
    f.i32Const(3);
    f.emit(Op::i32_shl); // byte offset = i * 8
    f.localGet(i);
    f.i32Const(3);
    f.emit(Op::i32_shl);
    f.memOp(Op::f64_load, 0);
    f.f64Const(1.0000001);
    f.emit(Op::f64_mul);
    f.memOp(Op::f64_store, 0);
    f.localGet(i);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(i);
    f.i32Const(count);
    f.emit(Op::i32_lt_u);
    f.brIf(head);
    f.end(); // loop
    f.localGet(i);
    mb.exportFunc("run", f.finish());
    return mb.build();
}

/**
 * Loop-versioning ablation on the affine RMW kernel, jit-opt x trap:
 * arg 0 = versioning off, arg 1 = on (opt pass enabled in both arms).
 * Retired-check counting is enabled in both arms — the increments cost
 * the same on both sides, so the wall-time delta still isolates the
 * versioned fast path — and checks_retired_per_call reports the dynamic
 * reduction directly (the acceptance criterion is >= 60%).
 */
void
BM_LoopVersioning(benchmark::State& state)
{
    bool versioning = state.range(0) != 0;
    constexpr int kCount = 1 << 13; // 8192 f64 == one 64 KiB page
    rt::EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.strategy = BoundsStrategy::trap;
    config.optVersioning = versioning;
    config.countRetiredChecks = true;
    wasm::OptStats opt_stats;
    auto inst =
        makeInstanceCfg(config, affineRmwModule(kCount), &opt_stats);
    if (!inst) {
        state.SkipWithError("instance creation failed");
        return;
    }
    for (auto _ : state) {
        rt::CallOutcome out = inst->callExport("run", {});
        benchmark::DoNotOptimize(out.results);
    }
    state.counters["loops_versioned"] = double(opt_stats.loopsVersioned);
    state.counters["checks_retired_per_call"] =
        state.iterations() > 0
            ? double(inst->checksRetired()) / double(state.iterations())
            : 0.0;
    state.counters["guard_fallbacks"] = double(inst->guardFallbacks());
    state.SetItemsProcessed(int64_t(state.iterations()) * kCount);
    state.SetLabel(versioning ? "versioning on" : "versioning off");
}
BENCHMARK(BM_LoopVersioning)->Apply(ablationPair);

/**
 * Epoch-check ablation on the affine RMW kernel, jit-opt x trap: arg 0
 * compiles the interrupt polls out (LNB_EPOCH_CHECKS=0), arg 1 leaves
 * them in (one 3-byte load from the poll page per loop back edge and
 * function entry). The wall-time delta is the whole price of making
 * every request killable; the acceptance criterion is < 2% on the
 * tightest loop the JIT emits, which this kernel is — real kernels with
 * more work per iteration amortize it further.
 */
void
BM_EpochChecks(benchmark::State& state)
{
    bool epoch = state.range(0) != 0;
    constexpr int kCount = 1 << 13; // 8192 f64 == one 64 KiB page
    rt::EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.strategy = BoundsStrategy::trap;
    config.epochChecks = epoch;
    auto inst =
        makeInstanceCfg(config, affineRmwModule(kCount), nullptr);
    if (!inst) {
        state.SkipWithError("instance creation failed");
        return;
    }
    for (auto _ : state) {
        rt::CallOutcome out = inst->callExport("run", {});
        benchmark::DoNotOptimize(out.results);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * kCount);
    state.SetLabel(epoch ? "epoch checks on" : "epoch checks off");
}
BENCHMARK(BM_EpochChecks)->Apply(ablationPair);

/**
 * Register-form ablation on the threaded interpreter: the retired
 * lowered-instruction count per kernel call is the static per-iteration
 * instruction count times the trip count, so the reported lowered_insts
 * counter (code length after the pass) and insts_fused (instructions
 * the rewrite removed) show the dispatch reduction directly; wall time
 * shows the speedup.
 */
void
BM_ThreadedRegisterForm(benchmark::State& state)
{
    bool optimize = state.range(0) != 0;
    constexpr int kCount = 1 << 13;
    wasm::OptStats opt_stats;
    size_t lowered_insts = 0;
    auto inst = makeInstanceOpt(EngineKind::interp_threaded,
                                BoundsStrategy::trap,
                                rmwScaleModule(kCount), optimize,
                                &opt_stats, &lowered_insts);
    if (!inst) {
        state.SkipWithError("instance creation failed");
        return;
    }
    for (auto _ : state) {
        rt::CallOutcome out = inst->callExport("run", {});
        benchmark::DoNotOptimize(out.results);
    }
    state.counters["lowered_insts"] = double(lowered_insts);
    state.counters["insts_fused"] = double(opt_stats.instsFused);
    state.SetItemsProcessed(int64_t(state.iterations()) * kCount);
    state.SetLabel(optimize ? "register form on" : "register form off");
}
BENCHMARK(BM_ThreadedRegisterForm)->Apply(ablationPair);

/** memory.grow of one page per call (the paper's contended path). */
void
BM_MemoryGrow(benchmark::State& state)
{
    auto strategy = BoundsStrategy(state.range(0));
    mem::MemoryConfig config;
    config.strategy = strategy;
    std::unique_ptr<mem::LinearMemory> memory;
    uint32_t grown = 0;
    for (auto _ : state) {
        if (!memory || grown >= 1024) {
            state.PauseTiming();
            auto result =
                mem::LinearMemory::create(wasm::Limits{1, 2048}, config);
            memory = result.isOk() ? result.takeValue() : nullptr;
            grown = 0;
            state.ResumeTiming();
            if (!memory) {
                state.SkipWithError("memory creation failed");
                return;
            }
        }
        benchmark::DoNotOptimize(memory->grow(1));
        grown++;
    }
    state.SetLabel(boundsStrategyName(strategy));
}
BENCHMARK(BM_MemoryGrow)->DenseRange(0, 4);

/** Full instance churn: create, run nothing, destroy. */
void
BM_InstanceChurn(benchmark::State& state)
{
    auto strategy = BoundsStrategy(state.range(0));
    rt::EngineConfig config;
    config.kind = EngineKind::jit_base;
    config.strategy = strategy;
    rt::Engine engine(config);

    wasm::ModuleBuilder mb;
    mb.addMemory(16, 256);
    uint32_t t = mb.addType({}, {ValType::i32});
    auto& f = mb.addFunction(t);
    f.i32Const(7);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    auto compiled = engine.compile(mb.build());
    if (!compiled.isOk()) {
        state.SkipWithError("compile failed");
        return;
    }
    auto module = compiled.takeValue();

    for (auto _ : state) {
        auto inst = rt::Instance::create(module);
        benchmark::DoNotOptimize(inst.isOk());
    }
    state.SetLabel(boundsStrategyName(strategy));
}
BENCHMARK(BM_InstanceChurn)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

/** Raw mprotect on a large reservation (simkernel calibration). */
void
BM_RawMprotectToggle(benchmark::State& state)
{
    size_t pages = size_t(state.range(0));
    size_t reserve = 1ull << 32;
    void* p = mmap(nullptr, reserve, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
        state.SkipWithError("mmap failed");
        return;
    }
    bool rw = false;
    for (auto _ : state) {
        mprotect(p, pages * 4096,
                 rw ? PROT_NONE : (PROT_READ | PROT_WRITE));
        rw = !rw;
    }
    munmap(p, reserve);
    state.SetLabel(std::to_string(pages) + " pages");
}
BENCHMARK(BM_RawMprotectToggle)->Arg(1)->Arg(16)->Arg(256);

/** Page-fault population cost in the uffd-emulation path. */
void
BM_UffdEmuFault(benchmark::State& state)
{
    mem::MemoryConfig config;
    config.strategy = BoundsStrategy::uffd;
    config.forceUffdEmulation = true;
    std::unique_ptr<mem::LinearMemory> memory;
    uint64_t offset = 0;
    for (auto _ : state) {
        if (!memory || offset + 4096 > memory->sizeBytes()) {
            state.PauseTiming();
            auto result = mem::LinearMemory::create(
                wasm::Limits{1024, 1024}, config);
            memory = result.isOk() ? result.takeValue() : nullptr;
            offset = 0;
            state.ResumeTiming();
            if (!memory) {
                state.SkipWithError("memory creation failed");
                return;
            }
        }
        // First touch of each page takes the SIGSEGV->populate path.
        memory->base()[offset] = 1;
        offset += 4096;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_UffdEmuFault);

} // namespace

/** BENCHMARK_MAIN(), with repetitions randomly interleaved unless the
 * caller set --benchmark_enable_random_interleaving itself. */
int
main(int argc, char** argv)
{
    constexpr char kFlag[] = "--benchmark_enable_random_interleaving";
    static char interleave[] = "--benchmark_enable_random_interleaving=true";
    std::vector<char*> args(argv, argv + argc);
    bool chosen =
        std::getenv("BENCHMARK_ENABLE_RANDOM_INTERLEAVING") != nullptr ||
        std::any_of(args.begin() + 1, args.end(), [&](const char* arg) {
            return std::strncmp(arg, kFlag, sizeof(kFlag) - 1) == 0;
        });
    if (!chosen)
        args.insert(args.begin() + 1, interleave);
    int count = int(args.size());
    args.push_back(nullptr);
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
