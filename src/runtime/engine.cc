#include "runtime/engine.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/clock.h"
#include "support/env.h"
#include "wasm/decoder.h"
#include "wasm/validator.h"

namespace lnb::rt {

const char*
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::interp_switch: return "interp-switch";
      case EngineKind::interp_threaded: return "interp-threaded";
      case EngineKind::jit_base: return "jit-base";
      case EngineKind::jit_opt: return "jit-opt";
    }
    return "?";
}

bool
engineKindFromName(const std::string& name, EngineKind& out)
{
    for (int i = 0; i < kNumEngineKinds; i++) {
        if (name == engineKindName(EngineKind(i))) {
            out = EngineKind(i);
            return true;
        }
    }
    return false;
}

namespace {

/**
 * True if the start function (when present) cannot perform host calls:
 * no call_host and no calli anywhere in its transitive direct-call
 * graph. Indirect calls are conservatively impure — a funcref table can
 * reach an import thunk. Pure starts are exactly the ones whose effect
 * is replayable by restoring memory/globals/table, so this gates
 * snapshot capture.
 */
bool
computeStartIsPure(const wasm::LoweredModule& lm)
{
    if (!lm.module.start.has_value())
        return true;
    uint32_t start = *lm.module.start;
    if (lm.module.isImportedFunc(start))
        return false;
    std::vector<bool> seen(lm.funcs.size(), false);
    std::vector<uint32_t> work{start};
    while (!work.empty()) {
        uint32_t func_idx = work.back();
        work.pop_back();
        uint32_t defined = func_idx - lm.module.numImportedFuncs();
        if (seen[defined])
            continue;
        seen[defined] = true;
        for (const wasm::LInst& inst : lm.funcs[defined].code) {
            if (inst.isWasmOp())
                continue;
            switch (inst.lop()) {
              case wasm::LOp::call_host:
              case wasm::LOp::calli:
                return false;
              case wasm::LOp::callf:
                if (lm.module.isImportedFunc(inst.a))
                    return false;
                work.push_back(inst.a);
                break;
              default:
                break;
            }
        }
    }
    return true;
}

/** Apply one table row's env column (see LNB_FOREACH_ENGINE_CONFIG_FIELD). */
template <typename T>
void
envOverride(T& field, const char* env, int64_t env_min, int64_t env_max)
{
    if (env != nullptr)
        field = static_cast<T>(envInt(env, int64_t(field), env_min, env_max));
}

} // namespace

EngineConfig
resolveEngineConfig(EngineConfig config)
{
#define LNB_ENV_OVERRIDE(type, name, def, env, env_min, env_max)              \
    envOverride(config.name, env, env_min, env_max);
    LNB_FOREACH_ENGINE_CONFIG_FIELD(LNB_ENV_OVERRIDE)
#undef LNB_ENV_OVERRIDE
    // Flag-style kill switches: set to anything but "" or "0" to force.
    if (envFlag("LNB_OPT_DISABLED"))
        config.optimizeLoweredIR = false;
    if (config.tiered &&
        (envFlag("LNB_TIER_DISABLED") || !jit::jitSupported())) {
        // Kill switch: the module stays in the base tier, not whatever
        // fixed kind the config happened to carry.
        config.tiered = false;
        config.kind = EngineKind::interp_threaded;
    }
    return config;
}

CompiledModule::CompiledModule() = default;

CompiledModule::~CompiledModule()
{
    // The controller's workers publish into funcCode_ and read lowered_;
    // join them before any member is torn down.
    tierController_.reset();
}

Status
CompiledModule::installCode(wasm::ByteReader* reload)
{
    // The per-function code table: one slot per function in the
    // module-wide index space. Allocated before codegen so the JIT can
    // bake slot addresses into its table-indirect call sequences.
    const uint32_t num_imports = lowered_.module.numImportedFuncs();
    numFuncs_ = num_imports + uint32_t(lowered_.funcs.size());
    funcCode_.reset(new exec::FuncCode[numFuncs_]);
    for (uint32_t i = 0; i < num_imports; i++) {
        funcCode_[i].entry.store(&exec::lnbJitHostCall,
                                 std::memory_order_relaxed);
        funcCode_[i].tier.store(uint8_t(exec::Tier::host),
                                std::memory_order_relaxed);
    }

    const bool tiered = config_.tiered;
    jit::JitOptions options;
    options.strategy = config_.strategy;
    options.profTier = tiered || config_.kind == EngineKind::jit_opt
                           ? obs::kProfTierJitOpt
                           : obs::kProfTierJitBase;
    options.countChecks = config_.countRetiredChecks;
    options.sharedMemory = config_.sharedMemory;
    options.epochChecks = config_.epochChecks;
    options.codeTable = funcCode_.get();

    if (!tiered && engineIsJit(config_.kind)) {
        // A cache dir shared across heterogeneous hosts could reach a
        // CPU without the JIT's ISA baseline; fail so the caller
        // recompiles (to an interp config or a clean error).
        if (!jit::jitSupported())
            return errUnsupported("this CPU lacks the JIT's ISA baseline");
        if (reload != nullptr) {
            LNB_ASSIGN_OR_RETURN(
                jitCode_, jit::deserializeCode(*reload, funcCode_.get()));
        } else {
            ScopedTimer timer(stats_.codegenSeconds);
            LNB_ASSIGN_OR_RETURN(jitCode_,
                                 jit::compileModule(lowered_, options));
        }
        stats_.codeBytes = jitCode_->codeBytes();
        for (uint32_t i = num_imports; i < numFuncs_; i++) {
            funcCode_[i].entry.store(jitCode_->entry(i),
                                     std::memory_order_relaxed);
            funcCode_[i].tier.store(uint8_t(exec::Tier::jit),
                                    std::memory_order_relaxed);
        }
        return Status::ok();
    }

    // Interpreter base tier: fixed interp kinds use their dispatch
    // technique unprofiled; tiered modules start every function in the
    // profiled threaded interpreter.
    exec::DispatchKind dispatch =
        !tiered && config_.kind == EngineKind::interp_switch
            ? exec::DispatchKind::switch_loop
            : exec::DispatchKind::threaded;
    exec::EntryFn entry = exec::interpFuncEntry(
        dispatch, exec::checkModeFor(config_.strategy), tiered);
    for (uint32_t i = num_imports; i < numFuncs_; i++)
        funcCode_[i].entry.store(entry, std::memory_order_relaxed);
    if (tiered) {
        tierController_ = std::make_unique<TierController>(
            &lowered_, funcCode_.get(), options, config_.tierCompileThreads);
    }
    return Status::ok();
}

Engine::Engine(const EngineConfig& config) : config_(config) {}

Result<std::shared_ptr<const CompiledModule>>
Engine::compile(wasm::Module module) const
{
    LNB_TRACE_SCOPE("rt.compile");
    static const obs::Counter c_compiled =
        obs::registerCounter("rt.modules_compiled");
    c_compiled.add();
    auto cm = std::make_shared<CompiledModule>();
    cm->config_ = config_;

    // Resolve the effective configuration (env knobs win) and record it
    // in the published config so caches, instances and reports all see
    // what actually ran.
    EngineConfig& config = cm->config_;
    config = resolveEngineConfig(config);
    const bool tiered = config.tiered;

    {
        ScopedTimer timer(cm->stats_.validateSeconds);
        LNB_RETURN_IF_ERROR(wasm::validateModule(module));
    }
    {
        ScopedTimer timer(cm->stats_.lowerSeconds);
        LNB_ASSIGN_OR_RETURN(cm->lowered_,
                             wasm::lowerModule(std::move(module)));
    }

    // A module that declares a shared memory (limits flag 0x03) is
    // compiled shared regardless of the config/env resolution above.
    for (const wasm::Limits& mem_limits : cm->lowered_.module.memories) {
        if (mem_limits.shared)
            config.sharedMemory = true;
    }
    // Loop versioning on a shared memory is only kept for grow-free
    // modules: the versioned fast path elides checks against a size
    // guard, and while growth is monotone, the conservative contract
    // (ISSUE: versioner rejects shared-memory loops unless grow-free)
    // keeps concurrent-grow reasoning out of the versioner entirely.
    bool grow_free = true;
    if (config.sharedMemory) {
        for (const wasm::LoweredFunc& f : cm->lowered_.funcs) {
            for (const wasm::LInst& inst : f.code) {
                if (inst.isWasmOp() &&
                    inst.wasmOp() == wasm::Op::memory_grow) {
                    grow_free = false;
                }
            }
        }
    }

    if (config.optimizeLoweredIR) {
        // Every executor runs the register-form rewrite, last. The
        // optimizing JIT under a software-check strategy first gets loop
        // versioning: a proved or guarded fast path can neither trap nor
        // clamp. Value numbering runs under trap only: a check that
        // clamped proves nothing about the next access to the same
        // address. Guard-page codegen has no check to skip. The
        // optimizing JIT pins the memory base under every strategy. The
        // rewrite carries the skip list along. Tiered modules share one IR
        // between both tiers; the interpreter runs the versioned clones
        // and guards like any other code.
        wasm::OptOptions opt;
        const bool top_is_opt_jit =
            tiered || config.kind == EngineKind::jit_opt;
        const bool trap = config.strategy == mem::BoundsStrategy::trap;
        const bool clamp = config.strategy == mem::BoundsStrategy::clamp;
        opt.analyzeChecks = top_is_opt_jit && trap;
        opt.versionLoops = top_is_opt_jit && (trap || clamp) &&
                           config.optVersioning && grow_free;
        opt.pinMemoryBase = top_is_opt_jit;
        LNB_TRACE_SCOPE("rt.opt");
        ScopedTimer timer(cm->stats_.optSeconds);
        cm->optStats_ = wasm::optimizeLoweredModule(cm->lowered_, opt);
    }

    LNB_RETURN_IF_ERROR(cm->installCode(nullptr));
    cm->startIsPure_ = computeStartIsPure(cm->lowered_);
    return std::shared_ptr<const CompiledModule>(std::move(cm));
}

Result<std::shared_ptr<const CompiledModule>>
Engine::compileBytes(const std::vector<uint8_t>& bytes) const
{
    double decode_seconds = 0;
    wasm::Module module;
    {
        ScopedTimer timer(decode_seconds);
        LNB_ASSIGN_OR_RETURN(module, wasm::decodeModule(bytes));
    }
    LNB_ASSIGN_OR_RETURN(auto cm, compile(std::move(module)));
    // CompiledModule is immutable through the shared_ptr; record the decode
    // time before publishing.
    const_cast<CompiledModule*>(cm.get())->stats_.decodeSeconds =
        decode_seconds;
    return cm;
}

// ---------------------------------------------------------------------
// Persistent-cache serialization (DESIGN.md §14)
// ---------------------------------------------------------------------

namespace {

/** Read one field; false if the byte is no enumerator of its type. */
bool
readField(wasm::ByteReader& r, bool& v)
{
    v = r.boolean();
    return true;
}

bool
readField(wasm::ByteReader& r, uint32_t& v)
{
    v = r.u32();
    return true;
}

bool
readField(wasm::ByteReader& r, EngineKind& v)
{
    uint8_t b = r.u8();
    v = EngineKind(b);
    return b < kNumEngineKinds;
}

bool
readField(wasm::ByteReader& r, mem::BoundsStrategy& v)
{
    uint8_t b = r.u8();
    v = mem::BoundsStrategy(b);
    return b < mem::kNumBoundsStrategies;
}

} // namespace

void
writeEngineConfig(const EngineConfig& config, wasm::ByteWriter& w)
{
    // A field's wire form is its bytes: bool as 0/1, enums as uint8_t.
#define LNB_WRITE_FIELD(type, name, ...) w.pod(config.name);
    LNB_FOREACH_ENGINE_CONFIG_FIELD(LNB_WRITE_FIELD)
#undef LNB_WRITE_FIELD
}

Result<EngineConfig>
readEngineConfig(wasm::ByteReader& r)
{
    EngineConfig config;
    bool valid = true;
#define LNB_READ_FIELD(type, name, ...) valid &= readField(r, config.name);
    LNB_FOREACH_ENGINE_CONFIG_FIELD(LNB_READ_FIELD)
#undef LNB_READ_FIELD
    if (!r.ok())
        return errInvalid("truncated serialized engine config");
    if (!valid)
        return errInvalid("serialized engine config names no such "
                          "engine kind or bounds strategy");
    return config;
}

std::vector<uint8_t>
serializeCompiledModule(const CompiledModule& cm)
{
    wasm::ByteWriter w;
    writeEngineConfig(cm.config(), w);
    w.pod(cm.stats());
    w.pod(cm.optStats());
    // Derived at compile time from the start function's lowered body;
    // persisted so a reload needn't re-analyze (or even retain) it.
    w.boolean(cm.startIsPure());
    // Tiered modules carry no AOT blob: their code lives in per-function
    // tier-up artifacts owned by the TierController. A reloaded tiered
    // module starts fully interpreted and re-accumulates hotness.
    const bool has_jit = cm.jitCode() != nullptr;
    // When every entry point is AOT JIT code the lowered instruction
    // streams are dead at runtime (the interpreter never runs, and only
    // a tiered reload recompiles from them) — drop them and keep just
    // the frame metadata. Interp and tiered artifacts keep the full IR.
    const bool lean_ir = has_jit && !cm.config().tiered;
    wasm::serializeLoweredModule(cm.lowered(), w, !lean_ir);
    if (has_jit)
        jit::serializeCode(*cm.jitCode(), w);
    return w.take();
}

Result<std::shared_ptr<const CompiledModule>>
deserializeCompiledModule(const uint8_t* data, size_t size)
{
    wasm::ByteReader r(data, size);
    auto cm = std::make_shared<CompiledModule>();
    LNB_ASSIGN_OR_RETURN(cm->config_, readEngineConfig(r));
    cm->stats_ = r.pod<CompileStats>();
    cm->optStats_ = r.pod<wasm::OptStats>();
    cm->startIsPure_ = r.boolean();
    if (!r.ok())
        return errInvalid("truncated serialized module payload");
    LNB_RETURN_IF_ERROR(wasm::deserializeLoweredModule(r, cm->lowered_));
    // The config decides whether a code artifact follows, exactly as it
    // decided whether compile produced one.
    LNB_RETURN_IF_ERROR(cm->installCode(&r));
    if (!r.ok())
        return errInvalid("truncated serialized module payload");
    return std::shared_ptr<const CompiledModule>(std::move(cm));
}

} // namespace lnb::rt
