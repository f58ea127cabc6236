/**
 * @file
 * Kernel explorer: run any registered workload on any engine and bounds
 * strategy, validate against native, and optionally dump the module
 * listing or lowered IR — the tool used when studying where a strategy's
 * cycles go.
 *
 *   $ ./examples/kernel_explorer                      # list kernels
 *   $ ./examples/kernel_explorer gemm                 # all configs
 *   $ ./examples/kernel_explorer gemm jit-opt uffd    # one config
 *   $ ./examples/kernel_explorer gemm --dump          # WAT + lowered IR
 *   $ ./examples/kernel_explorer gemm jit-base trap --code gemm.bin
 *
 * --code writes the raw machine code the JIT emits for the module (built
 * at perfbench's cold-start scale, 16) instead of running it;
 * scripts/jit_encoding_audit.py disassembles such files.
 */
#include <cstdio>
#include <cstring>

#include "jit/compiler.h"
#include "kernels/kernel.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "support/clock.h"
#include "wasm/disasm.h"

using namespace lnb;

namespace {

double
timeOnce(rt::Instance& instance)
{
    uint64_t t0 = monotonicNanos();
    rt::CallOutcome out = instance.callExport("run", {});
    double dt = double(monotonicNanos() - t0) * 1e-9;
    return out.ok() ? dt : -1;
}

int
runConfig(const kernels::Kernel& kernel, rt::EngineKind kind,
          mem::BoundsStrategy strategy, int scale, double native_seconds)
{
    rt::EngineConfig config;
    config.kind = kind;
    config.strategy = strategy;
    rt::Engine engine(config);
    auto compiled = engine.compile(kernel.buildModule(scale));
    if (!compiled.isOk()) {
        std::fprintf(stderr, "  compile failed: %s\n",
                     compiled.status().toString().c_str());
        return 1;
    }
    auto instance = rt::Instance::create(compiled.takeValue());
    if (!instance.isOk()) {
        std::fprintf(stderr, "  instantiate failed: %s\n",
                     instance.status().toString().c_str());
        return 1;
    }
    // Warm up, then take the best of three.
    timeOnce(*instance.value());
    double best = 1e100;
    for (int i = 0; i < 3; i++)
        best = std::min(best, timeOnce(*instance.value()));

    rt::CallOutcome out = instance.value()->callExport("run", {});
    double native_checksum = kernel.native(scale);
    bool matches =
        out.ok() && out.results[0].f64 == native_checksum;
    std::printf("  %-16s %-9s %9.3f ms  %6.2fx native  checksum %s\n",
                engineKindName(kind), boundsStrategyName(strategy),
                best * 1e3, best / native_seconds,
                matches ? "OK" : "MISMATCH");
    return matches ? 0 : 1;
}

/** Compile @p kernel for one JIT config and write its code bytes. */
int
writeCode(const kernels::Kernel& kernel, rt::EngineKind kind,
          mem::BoundsStrategy strategy, const char* path)
{
    rt::EngineConfig config;
    config.kind = kind;
    config.strategy = strategy;
    auto compiled = rt::Engine(config).compile(kernel.buildModule(16));
    if (!compiled.isOk()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     compiled.status().toString().c_str());
        return 1;
    }
    const jit::CompiledCode* code = compiled.value()->jitCode();
    if (code == nullptr) {
        std::fprintf(stderr, "%s emits no JIT code\n", engineKindName(kind));
        return 1;
    }
    FILE* out = std::fopen(path, "wb");
    if (out == nullptr) {
        std::perror(path);
        return 1;
    }
    size_t written = std::fwrite(code->codeData(), 1, code->codeBytes(), out);
    bool ok = std::fclose(out) == 0 && written == code->codeBytes();
    if (!ok) {
        std::fprintf(stderr, "short write to %s\n", path);
        return 1;
    }
    std::printf("%s %s %s: %zu code bytes -> %s\n", kernel.name.c_str(),
                engineKindName(kind), boundsStrategyName(strategy),
                code->codeBytes(), path);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::printf("registered kernels:\n");
        for (const kernels::Kernel& kernel : kernels::allKernels()) {
            std::printf("  %-18s %-10s %s\n", kernel.name.c_str(),
                        kernel.suite.c_str(),
                        kernel.description.c_str());
        }
        std::printf("\nusage: %s <kernel> [engine] [strategy] [--dump]\n"
                    "       %s <kernel> <engine> <strategy> --code <file>\n",
                    argv[0], argv[0]);
        return 0;
    }

    const kernels::Kernel* kernel = kernels::findKernel(argv[1]);
    if (kernel == nullptr) {
        std::fprintf(stderr, "unknown kernel %s\n", argv[1]);
        return 1;
    }
    int scale = 2;

    if (argc > 2 && std::strcmp(argv[2], "--dump") == 0) {
        wasm::Module module = kernel->buildModule(8);
        std::printf("%s\n", wasm::moduleToString(module).c_str());
        auto lowered = wasm::lowerModule(std::move(module));
        for (const wasm::LoweredFunc& func : lowered.value().funcs)
            std::printf("%s\n",
                        wasm::loweredFuncToString(func).c_str());
        return 0;
    }

    if (argc >= 5 && std::strcmp(argv[4], "--code") == 0) {
        if (argc != 6) {
            std::fprintf(stderr, "--code takes one output file\n");
            return 1;
        }
        rt::EngineKind kind;
        mem::BoundsStrategy strategy;
        if (!engineKindFromName(argv[2], kind) ||
            !boundsStrategyFromName(argv[3], strategy)) {
            std::fprintf(stderr, "unknown engine or strategy\n");
            return 1;
        }
        return writeCode(*kernel, kind, strategy, argv[5]);
    }

    // Native baseline.
    double native_best = 1e100;
    kernel->native(scale);
    for (int i = 0; i < 3; i++) {
        uint64_t t0 = monotonicNanos();
        kernel->native(scale);
        native_best = std::min(
            native_best, double(monotonicNanos() - t0) * 1e-9);
    }
    std::printf("%s (scale %d): native %.3f ms\n", kernel->name.c_str(),
                scale, native_best * 1e3);

    if (argc >= 4) {
        rt::EngineKind kind;
        mem::BoundsStrategy strategy;
        if (!engineKindFromName(argv[2], kind) ||
            !boundsStrategyFromName(argv[3], strategy)) {
            std::fprintf(stderr, "unknown engine or strategy\n");
            return 1;
        }
        return runConfig(*kernel, kind, strategy, scale, native_best);
    }

    int failures = 0;
    for (auto kind : {rt::EngineKind::interp_threaded,
                      rt::EngineKind::jit_base, rt::EngineKind::jit_opt}) {
        for (auto strategy :
             {mem::BoundsStrategy::none, mem::BoundsStrategy::clamp,
              mem::BoundsStrategy::trap, mem::BoundsStrategy::mprotect,
              mem::BoundsStrategy::uffd}) {
            failures +=
                runConfig(*kernel, kind, strategy, scale, native_best);
        }
    }
    return failures == 0 ? 0 : 1;
}
