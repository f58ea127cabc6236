/**
 * @file
 * The public embedding API: Engine (a compilation pipeline configured with
 * an execution technique and a bounds-checking strategy), CompiledModule
 * (an immutable, thread-shareable artifact), and — in instance.h — Instance
 * (per-tenant execution state).
 *
 * Typical use:
 *
 *   rt::Engine engine({rt::EngineKind::jit_opt,
 *                      mem::BoundsStrategy::uffd});
 *   auto cm = engine.compile(std::move(module)).takeValue();
 *   auto inst = rt::Instance::create(cm, rt::ImportMap{}).takeValue();
 *   auto out = inst->callExport("run", {});
 */
#ifndef LNB_RUNTIME_ENGINE_H
#define LNB_RUNTIME_ENGINE_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "jit/compiler.h"
#include "mem/linear_memory.h"
#include "runtime/tiering.h"
#include "support/status.h"
#include "wasm/lower.h"
#include "wasm/opt.h"
#include "wasm/module.h"

namespace lnb::rt {

/** The four execution engines (paper-runtime analogues; DESIGN.md §2). */
enum class EngineKind : uint8_t {
    interp_switch = 0, ///< naive switch interpreter (lower bound)
    interp_threaded,   ///< computed-goto interpreter (wasm3 analogue)
    jit_base,          ///< single-pass baseline JIT (V8/Wasmtime analogue)
    jit_opt,           ///< optimizing JIT (WAVM analogue)
};

constexpr int kNumEngineKinds = 4;

const char* engineKindName(EngineKind kind);
bool engineKindFromName(const std::string& name, EngineKind& out);

inline bool
engineIsJit(EngineKind kind)
{
    return kind == EngineKind::jit_base || kind == EngineKind::jit_opt;
}

/**
 * The EngineConfig field table. Each knob is declared once, as one row;
 * the struct, the LNB_* environment overrides in resolveEngineConfig,
 * the persistent-cache (de)serialization and the cache fingerprint
 * (svc::engineConfigFingerprint hashes the serialized bytes) are all
 * generated from it, so a new knob is one row plus its docs.
 *
 * Table columns:
 *   V(type, name, def, env, env_min, env_max)
 *     type    - member type: bool, uint32_t, or one of the uint8_t enums
 *               EngineKind / mem::BoundsStrategy
 *     name    - EngineConfig member
 *     def     - default value
 *     env     - LNB_* variable parsed strictly (envInt) into the field
 *               when set, or nullptr; a value outside [env_min, env_max]
 *               or not an integer warns and keeps the config value
 */
// clang-format off
#define LNB_FOREACH_ENGINE_CONFIG_FIELD(V)                                    \
    /* Execution technique; ignored when tiered. */                           \
    V(EngineKind,          kind,               EngineKind::jit_base,          \
      nullptr, 0, 0)                                                          \
    V(mem::BoundsStrategy, strategy,           mem::BoundsStrategy::mprotect, \
      nullptr, 0, 0)                                                          \
    /* Force the uffd emulation even when real userfaultfd exists. */         \
    V(bool,                forceUffdEmulation, false,     nullptr, 0, 0)      \
    /* Value-stack size per instance, in 8-byte cells. */                     \
    V(uint32_t,            valueStackCells,    1u << 20,  nullptr, 0, 0)      \
    V(uint32_t,            maxCallDepth,       8192,      nullptr, 0, 0)      \
    /* Run the lowered-IR optimization pass (wasm/opt.*) between lowering     \
       and execution: the register-form rewrite for every executor; for       \
       jit_opt and the tiered top tier, bounds-check elimination before it    \
       (loop versioning under trap and clamp, value numbering under trap)     \
       and, under every strategy, the memory-base pin and the local-home      \
       allocation after it. Ablation knob; LNB_OPT_DISABLED (flag) clears     \
       it. */                                                                 \
    V(bool,                optimizeLoweredIR,  true,      nullptr, 0, 0)      \
    /* Affine loop versioning (wasm/opt.*): clone counted loops with in-loop  \
       bounds checks behind a preheader range guard so the fast path runs     \
       check-free. Effective only where check analysis runs (jit_opt or       \
       tiered, trap or clamp strategy, optimizeLoweredIR on). */              \
    V(bool,                optVersioning,      true,                          \
      "LNB_OPT_VERSIONING", 0, 1)                                             \
    /* Count dynamically retired software bounds checks in JIT code           \
       (InstanceContext::checksRetired). Measurement only: the increments     \
       pollute steady-state timings. */                                       \
    V(bool,                countRetiredChecks, false,                         \
      "LNB_COUNT_CHECKS", 0, 1)                                               \
    /* Per-function tiered execution: every function starts in the profiled   \
       threaded interpreter and is recompiled with the jit_opt pipeline in    \
       the background once its hotness (function entries + loop back edges)   \
       crosses tierThreshold; the new entry is published atomically into the  \
       module's code table. `kind` is ignored. LNB_TIER_DISABLED (flag)       \
       pins the module to interp_threaded instead. */                         \
    V(bool,                tiered,             false,     nullptr, 0, 0)      \
    /* Hotness units (entry = 8, back edge = 1) before tier-up. */            \
    V(uint32_t,            tierThreshold,      1u << 14,                      \
      "LNB_TIER_THRESHOLD", 1, 1 << 30)                                       \
    /* Background compiler threads serving the tier-up queue. */              \
    V(uint32_t,            tierCompileThreads, 1,                             \
      "LNB_TIER_COMPILE_THREADS", 1, 256)                                     \
    /* Compile for a shared (multi-thread) linear memory even when the        \
       module's memory section does not carry the shared flag: instances     \
       get a process-shared mapping with an atomic size word, the JIT lowers  \
       memory.size as a synchronizing native call, and loop versioning is     \
       disabled unless the module is grow-free. Forced on when the module     \
       declares a shared memory. */                                           \
    V(bool,                sharedMemory,       false,                         \
      "LNB_SHARED_MEM", 0, 1)                                                 \
    /* Compile epoch interrupt checks into all tiers at loop back edges and   \
       function entries, raising the clean-unwind traps                       \
       interrupted/deadline_exceeded: the interpreters count down to a read   \
       of the instance's interrupt flag, the JIT polls with one load from     \
       the instance's poll page, which interrupt() makes unreadable.          \
       Deadlines, Service::stop() and waking parked memory.atomic.wait all    \
       depend on it. LNB_EPOCH_INTERVAL tunes the interpreter poll divisor. */\
    V(bool,                epochChecks,        true,                          \
      "LNB_EPOCH_CHECKS", 0, 1)
// clang-format on

/** Engine configuration: execution technique + safety knobs. */
struct EngineConfig
{
#define LNB_ENGINE_CONFIG_MEMBER(type, name, def, env, env_min, env_max)      \
    type name = def;
    LNB_FOREACH_ENGINE_CONFIG_FIELD(LNB_ENGINE_CONFIG_MEMBER)
#undef LNB_ENGINE_CONFIG_MEMBER
};

/**
 * Resolve the LNB_* environment overrides into @p config, exactly as
 * Engine::compile does before compiling (tier knobs, opt kill-switches,
 * shared-memory/epoch forcing, the tiered+LNB_TIER_DISABLED fallback).
 * Cache keys must fingerprint the *resolved* config: two processes with
 * different environments would otherwise produce differently-shaped code
 * under one key, and a persisted artifact could be loaded into a process
 * whose env demands different codegen.
 */
EngineConfig resolveEngineConfig(EngineConfig config);

/** Append @p config to @p w: one encoding per table row, in row order. */
void writeEngineConfig(const EngineConfig& config, wasm::ByteWriter& w);

/** Inverse of writeEngineConfig; errInvalid on a short read or an enum
 * byte out of range. */
Result<EngineConfig> readEngineConfig(wasm::ByteReader& r);

/**
 * Post-`start` instance state captured once per module and restored
 * wholesale into every later instance (DESIGN.md §14): the initialized
 * linear memory as a CoW template, plus value copies of the mutable
 * globals and the funcref table. Immutable after publication.
 */
struct SnapshotState
{
    std::shared_ptr<mem::MemorySnapshot> memory;
    std::vector<wasm::Value> globals;
    std::vector<exec::TableEntry> table;
};

/** Wall-clock cost of each compilation stage (micro_pipeline bench). */
struct CompileStats
{
    double decodeSeconds = 0;
    double validateSeconds = 0;
    double lowerSeconds = 0;
    double optSeconds = 0;
    double codegenSeconds = 0;
    size_t codeBytes = 0;
};

/**
 * A compiled module. Shareable across threads; every Instance holds a
 * shared_ptr to one. Logically immutable — the lowered IR, config and any
 * AOT code never change — except for the per-function code table, whose
 * entries advance monotonically (interp -> jit) under the publication
 * protocol in DESIGN.md §10; tier state is therefore shared by every
 * instance and tenant running the module.
 */
class CompiledModule
{
  public:
    CompiledModule();
    ~CompiledModule(); ///< stops the background tier-up compiler first

    CompiledModule(const CompiledModule&) = delete;
    CompiledModule& operator=(const CompiledModule&) = delete;

    const wasm::LoweredModule& lowered() const { return lowered_; }
    const EngineConfig& config() const { return config_; }
    const jit::CompiledCode* jitCode() const { return jitCode_.get(); }
    const CompileStats& stats() const { return stats_; }
    /** What the lowered-IR optimization pass did (zeros when skipped). */
    const wasm::OptStats& optStats() const { return optStats_; }

    /** The per-function code table, module-wide index space (imports
     * included). One slot per function; see exec::FuncCode. */
    exec::FuncCode* funcCode() const { return funcCode_.get(); }
    /** Slots in funcCode(): imports + defined functions. */
    uint32_t numFuncs() const { return numFuncs_; }
    /** Current tier of one function. */
    exec::Tier funcTier(uint32_t func_idx) const
    {
        return exec::Tier(
            funcCode_[func_idx].tier.load(std::memory_order_relaxed));
    }

    /** Null unless compiled with config.tiered (and tier-up enabled). */
    TierController* tierController() const
    {
        return tierController_.get();
    }
    /** Tiering statistics; zeros for fixed-tier modules. */
    TierStats tierStats() const
    {
        return tierController_ != nullptr ? tierController_->stats()
                                          : TierStats{};
    }
    /** Block until every tier-up requested so far is compiled
     * (tests/bench determinism aid). No-op for fixed-tier modules. */
    void drainTierQueue() const
    {
        if (tierController_ != nullptr)
            tierController_->drain();
    }

    // ----- instance snapshot slot (DESIGN.md §14) -----
    /**
     * The module's start function performs no host calls (directly or
     * transitively) and no indirect calls that could reach one, so its
     * effects are fully described by the memory/global/table state it
     * leaves behind — the precondition for snapshot capture. Modules
     * with an impure start never snapshot: replaying the template would
     * skip the host side effects.
     */
    bool startIsPure() const { return startIsPure_; }
    /** Published snapshot, or null while none has been captured. Stable
     * once non-null; owned by this module. */
    const SnapshotState* snapshot() const
    {
        return snapshot_.load(std::memory_order_acquire);
    }
    /** Publish a captured snapshot; first caller wins, later copies are
     * discarded (capture races are benign — any post-start state is
     * equivalent for a deterministic start). */
    void publishSnapshot(std::unique_ptr<const SnapshotState> snap) const
    {
        std::lock_guard<std::mutex> lock(snapMutex_);
        if (snapshot_.load(std::memory_order_relaxed) == nullptr) {
            snapshotStorage_ = std::move(snap);
            snapshot_.store(snapshotStorage_.get(),
                            std::memory_order_release);
        }
    }
    /** Capture failed structurally (shared memory, uffd-emu arena, no
     * memory, impure start) — stop re-trying on every instance. */
    bool snapshotRefused() const
    {
        return snapshotRefused_.load(std::memory_order_relaxed);
    }
    void markSnapshotRefused() const
    {
        snapshotRefused_.store(true, std::memory_order_relaxed);
    }
    /** Count one full initialization (segments + start) of an eligible
     * instance; true from the second on. A template is captured only
     * once the module is reused, so a one-shot instance never pays for
     * one. */
    bool noteFullInit() const
    {
        return fullInits_.fetch_add(1, std::memory_order_relaxed) != 0;
    }

  private:
    friend class Engine;
    friend Result<std::shared_ptr<const CompiledModule>>
    deserializeCompiledModule(const uint8_t* data, size_t size);
    /**
     * The one install path for compile and cache reload: allocate the
     * code table, obtain the AOT JIT code when the config names a fixed
     * JIT kind (generate it, or read it from @p reload), publish every
     * slot's entry and tier, and start the TierController for tiered
     * modules. Needs config_ and lowered_.
     */
    Status installCode(wasm::ByteReader* reload);
    wasm::LoweredModule lowered_;
    EngineConfig config_;
    std::unique_ptr<jit::CompiledCode> jitCode_;
    /** One slot per function, shared across instances (mutable tier
     * state inside an otherwise-immutable artifact). */
    mutable std::unique_ptr<exec::FuncCode[]> funcCode_;
    uint32_t numFuncs_ = 0;
    std::unique_ptr<TierController> tierController_;
    CompileStats stats_;
    wasm::OptStats optStats_;
    bool startIsPure_ = false;
    mutable std::mutex snapMutex_;
    mutable std::atomic<const SnapshotState*> snapshot_{nullptr};
    mutable std::unique_ptr<const SnapshotState> snapshotStorage_;
    mutable std::atomic<bool> snapshotRefused_{false};
    mutable std::atomic<uint64_t> fullInits_{0};
};

/**
 * Serialize a compiled module for the persistent code cache: the
 * resolved config, pipeline stats, the full lowered IR, and (for JIT
 * kinds) the relocatable code artifact. The inverse rebuilds the module
 * in any later process of the same build without recompiling — the
 * caller (svc/module_cache.*) guards the payload with a fingerprinted
 * header and rejects stale or corrupt bytes before calling deserialize.
 */
std::vector<uint8_t> serializeCompiledModule(const CompiledModule& cm);

Result<std::shared_ptr<const CompiledModule>>
deserializeCompiledModule(const uint8_t* data, size_t size);

/** A compilation pipeline for one engine configuration. */
class Engine
{
  public:
    explicit Engine(const EngineConfig& config);

    const EngineConfig& config() const { return config_; }

    /** Validate, lower, and (for JIT kinds) generate code. */
    Result<std::shared_ptr<const CompiledModule>>
    compile(wasm::Module module) const;

    /** Decode a binary module, then compile it. */
    Result<std::shared_ptr<const CompiledModule>>
    compileBytes(const std::vector<uint8_t>& bytes) const;

  private:
    EngineConfig config_;
};

} // namespace lnb::rt

#endif // LNB_RUNTIME_ENGINE_H
