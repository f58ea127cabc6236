/**
 * @file
 * Execution state shared by every executor (both interpreters and the JIT)
 * plus the helper entry points generated code calls back into.
 *
 * InstanceContext is deliberately a plain struct with a frozen layout: the
 * JIT addresses its hot fields with fixed offsets (offsetof) from a pinned
 * register. Cold bookkeeping lives behind the hot fields.
 */
#ifndef LNB_INTERP_EXEC_COMMON_H
#define LNB_INTERP_EXEC_COMMON_H

#include <atomic>
#include <cstdint>

#include "mem/linear_memory.h"
#include "wasm/lower.h"
#include "wasm/types.h"

namespace lnb::exec {

struct InstanceContext;

/**
 * Unified cross-tier calling convention: every function in the module-wide
 * index space — interpreted, JIT-compiled or an imported host function — is
 * entered through this one signature, with the argument/result frame
 * convention shared by all tiers (args preloaded at cells 0..numParams,
 * results left at cell 0). @p func_idx is the module-wide function index;
 * JIT-generated entries ignore it (their identity is baked into the code),
 * interpreter entries use it to locate the lowered body, and the host-call
 * glue uses it as the import index.
 */
using EntryFn = void (*)(InstanceContext* ctx, wasm::Value* frame,
                         uint32_t func_idx);

/** Execution tier of one function (FuncCode::tier). */
enum class Tier : uint8_t {
    host = 0,  ///< imported function; entry is the host-call glue
    interp,    ///< interpreter entry (base tier)
    queued,    ///< hot; waiting for the background compiler
    compiling, ///< a background compile is in flight
    jit,       ///< optimized JIT entry published
    failed,    ///< background compile failed; pinned to the interpreter
};

const char* tierName(Tier tier);

/**
 * One slot of the per-function code table: the current entry point plus
 * tier state and shared hotness. The table is owned by the CompiledModule
 * and shared by every instance (and tenant) running it, so a function
 * tiered up once is warm for all. Fixed 16-byte layout: JIT-generated
 * call_indirect sequences index the table with `func_idx * 16`.
 *
 * Publication protocol (DESIGN.md §10): the background compiler writes the
 * code bytes, makes them executable, then `entry.store(release)`; callers
 * `entry.load(acquire)` and jump. In-flight activations finish in the old
 * tier; there is no on-stack replacement.
 */
struct FuncCode
{
    std::atomic<EntryFn> entry{nullptr};
    /** Flushed per-instance hotness (relaxed; diagnostics only). */
    std::atomic<uint32_t> hotness{0};
    std::atomic<uint8_t> tier{uint8_t(Tier::interp)};
    uint8_t pad_[3] = {};
};

static_assert(sizeof(FuncCode) == 16,
              "JIT indexes the code table by *16");
static_assert(std::atomic<EntryFn>::is_always_lock_free,
              "entry publication must be a plain atomic store");

/**
 * A host (imported) function. Arguments arrive in `args[0..n)`; results are
 * written back to `args[0..m)` (the overlapping-frame convention used for
 * wasm-to-wasm calls as well).
 */
using HostFn = void (*)(InstanceContext* ctx, wasm::Value* args, void* user);

/** One bound import. */
struct HostFuncBinding
{
    HostFn fn = nullptr;
    void* user = nullptr;
    const wasm::FuncType* type = nullptr;
};

/**
 * One funcref table element. Fixed 32-byte layout: the JIT indexes the
 * table with `idx * 32`. Calls dispatch through the module's code table
 * by funcIdx.
 */
struct TableEntry
{
    uint64_t padding = 0; ///< keeps the 32-byte stride
    uint64_t typeIdx = 0;   ///< module-level type index for the type check
    uint64_t funcIdx = 0;   ///< function index (code-table slot)
    uint64_t initialized = 0;
};

static_assert(sizeof(TableEntry) == 32, "JIT indexes the table by *32");

/**
 * All state one executing instance needs. Hot fields first: the JIT
 * reads them via offsetof from its context register, and every field it
 * reads must sit in the first 128 bytes so that [rbp+disp8] reaches it
 * (the JIT's CTX_FIELD static_asserts this; DESIGN.md §6).
 */
struct InstanceContext
{
    // ----- hot: read by generated code, all below byte 128 -----
    uint8_t* memBase = nullptr;
    uint64_t memSize = 0;      ///< current linear-memory size in bytes
    uint64_t clampOffset = 0;  ///< red-zone offset for the clamp strategy
    wasm::Value* vstack = nullptr;
    wasm::Value* vstackEnd = nullptr;
    wasm::Value* globals = nullptr;
    TableEntry* table = nullptr;
    uint64_t tableSize = 0;
    /**
     * The module's per-function code table (module-wide index space,
     * imports included). Every callf/calli in the interpreters dispatches
     * through it; same slot the JIT's table-indirect call sequences read.
     */
    FuncCode* funcCode = nullptr;
    /**
     * Lowest native stack address generated code may still use; the JIT
     * prologue compares rsp against this (the "stack overflow check" cost
     * the paper lists among wasm's safety mechanisms).
     */
    uint64_t nativeStackLimit = 0;
    /**
     * Cross-thread interrupt request: 0 when idle, else the wasm::TrapKind
     * (interrupted / deadline_exceeded) the next epoch check must raise.
     * Written by Instance::interrupt() from reaper/killer threads; read by
     * generated code at every function entry and loop back edge as a
     * 32-bit memory operand of `cmp dword [rbp+disp8], 0` (x86 aligned
     * loads are atomic), and by the interpreters relaxed. Only ever
     * nonzero on the kill path. Cleared by the owning thread when the
     * trap is delivered and on instance (re)initialization.
     */
    std::atomic<uint32_t> interruptFlag{0};
    /**
     * Dynamically retired bounds checks (trap/clamp strategies): every
     * software range compare actually executed, whether inline in a
     * memory access or a versioning guard term.
     * Interpreters always count; the JIT emits increments only under
     * EngineConfig.countRetiredChecks (the ablation knob) since the
     * read-modify-write would pollute steady-state measurements.
     */
    uint64_t checksRetired = 0;
    /** Times a versioned loop's preheader guard failed and execution fell
     * back to the checked slow-path clone (LOp::count_fallback). */
    uint64_t guardFallbacks = 0;

    // ----- cold: runtime bookkeeping -----
    /**
     * First free cell of the value stack for a new top-level activation.
     * Equals `vstack` when idle; host-call glue advances it past the
     * argument area so a host function re-entering the instance cannot
     * clobber the outer activation's frames.
     */
    wasm::Value* vstackTop = nullptr;
    mem::LinearMemory* memory = nullptr;
    const wasm::LoweredModule* lowered = nullptr;
    HostFuncBinding* hostFuncs = nullptr;
    uint32_t numHostFuncs = 0;
    uint32_t callDepth = 0;
    uint32_t maxCallDepth = 8192;
    /** Runtime blocking-event counter (paper Fig. 5 substitute): grows,
     * host calls that may block, trap recoveries. */
    uint64_t blockingEvents = 0;
    /**
     * True when `memory` is shared between several instances running on
     * different threads. `memSize` is then a per-thread mirror of the
     * memory's authoritative atomic size word, refreshed at every
     * synchronization point (atomic accesses, wait/notify, memory.size,
     * memory.grow) and in the failed-bounds-check slow paths. Sound
     * because linear memories never shrink: a stale mirror only
     * under-approximates the true size, and an access racing a concurrent
     * grow without synchronization is allowed to trap by the threads
     * memory model.
     */
    bool sharedMem = false;

    // ----- preemption (interruptFlag is in the hot prefix above) -----
    /**
     * Interpreter poll divisor: the countdown is decremented at every
     * function entry and loop back edge, and only hitting zero pays the
     * atomic flag load (epochInterruptCheck). Reloaded from epochInterval.
     * 0 disables the countdown entirely (epochChecks off).
     */
    uint32_t epochCountdown = 0;
    /** LNB_EPOCH_INTERVAL (default 128); 0 when epoch checks are off. */
    uint32_t epochInterval = 0;

    // ----- tiering (cold; null/zero when profiling is off) -----
    /**
     * Per-instance hotness accumulators, module-wide index space. Plain
     * (non-atomic) because an Instance is single-threaded; flushed into
     * FuncCode::hotness when a counter crosses tierThreshold. Null in
     * fixed-tier configurations — the gate the profiled interpreter
     * entries branch on.
     */
    uint32_t* funcHotness = nullptr;
    uint32_t tierThreshold = 0;
    /** Background tier-up request hook (TierController::requestHook). */
    void (*tierRequest)(void* ctl, uint32_t func_idx) = nullptr;
    void* tierCtl = nullptr;
};

/** Hotness credited to one function entry (back edges count 1 each). */
constexpr uint32_t kEntryHotness = 8;

/**
 * Profiling bump shared by the interpreter tiers: accumulate into the
 * per-instance counter and, on crossing the threshold, flush to the shared
 * FuncCode slot and request a background tier-up.
 */
inline void
recordHotness(InstanceContext* ctx, uint32_t func_idx, uint32_t amount)
{
    uint32_t* slots = ctx->funcHotness;
    if (slots == nullptr)
        return;
    uint32_t value = slots[func_idx] + amount;
    if (value < ctx->tierThreshold) {
        slots[func_idx] = value;
        return;
    }
    slots[func_idx] = 0;
    ctx->funcCode[func_idx].hotness.fetch_add(value,
                                              std::memory_order_relaxed);
    if (ctx->tierRequest != nullptr)
        ctx->tierRequest(ctx->tierCtl, func_idx);
}

/**
 * Epoch slow path: reload the countdown and raise the requested trap if
 * the interrupt flag is set. [[noreturn]] only when it traps.
 */
void epochInterruptCheck(InstanceContext* ctx);

/**
 * Interpreter epoch poll, placed at function entries and loop back edges
 * (the same sites the tiering profiler instruments). The fast path is a
 * plain decrement-and-test of a non-atomic cell; every epochInterval-th
 * poll pays the atomic interrupt-flag load. An unsigned wrap when the
 * countdown was left at 0 is harmless: the slow path re-arms it.
 */
inline void
epochPoll(InstanceContext* ctx)
{
    if (--ctx->epochCountdown == 0)
        epochInterruptCheck(ctx);
}

/** Bounds-check flavours executors specialize on. */
enum class CheckMode : uint8_t {
    raw,   ///< no inline checks (none / mprotect / uffd strategies)
    clamp, ///< clamp out-of-bounds addresses to the red zone
    trap,  ///< explicit compare and trap
};

/** Map a strategy to the executor check mode. */
inline CheckMode
checkModeFor(mem::BoundsStrategy strategy)
{
    switch (strategy) {
      case mem::BoundsStrategy::clamp: return CheckMode::clamp;
      case mem::BoundsStrategy::trap: return CheckMode::trap;
      default: return CheckMode::raw;
    }
}

/** Refresh the context's memory-size mirror from the authoritative size
 * word of a shared memory (no-op for unshared instances). Called at every
 * synchronization point; see InstanceContext::sharedMem. */
inline void
syncSharedSize(InstanceContext* ctx)
{
    if (ctx->sharedMem)
        ctx->memSize = ctx->memory->sizeBytes();
}

/**
 * The atomic operation selectors shared by the interpreters and the JIT's
 * native-call glue (lnbJitAtomic). Packed into the glue's op_mode argument
 * as: bits 0..7 = AtomicOp, bit 8 = 64-bit access, bits 16.. = CheckMode.
 */
enum class AtomicOp : uint8_t {
    load = 0,
    store,
    add,
    sub,
    and_,
    or_,
    xor_,
    xchg,
    cmpxchg,
    notify,
    wait,
};

/** Pack lnbJitAtomic's op_mode argument. */
inline uint32_t
atomicOpMode(AtomicOp op, bool is64, CheckMode mode)
{
    return uint32_t(op) | (is64 ? 0x100u : 0u) | (uint32_t(mode) << 16);
}

/**
 * memory.atomic.wait32/64: validate alignment and bounds against the
 * refreshed authoritative size, trap on non-shared memories, then park the
 * thread on the process-wide waiter list unless *addr != expected.
 * Returns 0 (woken), 1 (value mismatch) or 2 (timed out); timeout_ns < 0
 * waits forever. CheckMode-independent: waits always bounds-check
 * explicitly, before any lock is taken, so a guard-page trap cannot
 * unwind while holding a waiter-bucket mutex.
 */
uint32_t execAtomicWait(InstanceContext* ctx, uint32_t addr,
                        uint64_t expected, int64_t timeout_ns, bool is64,
                        uint64_t offset);

/** memory.atomic.notify: wake up to @p count waiters parked on the
 * address. Bounds/alignment-checked like a 4-byte atomic; on non-shared
 * memories returns 0 after the checks (nothing can be waiting). */
uint32_t execAtomicNotify(InstanceContext* ctx, uint32_t addr,
                          uint32_t count, uint64_t offset);

/**
 * memory.grow entry point shared by all executors: grows the backing
 * memory, refreshes the context mirrors, and returns the old page count or
 * -1. Never traps.
 */
int32_t execMemoryGrow(InstanceContext* ctx, uint32_t delta_pages);

/** memory.size entry point. */
uint32_t execMemorySize(InstanceContext* ctx);

/**
 * Host-call glue used by the JIT (and the interpreters): dispatches import
 * @p import_idx with the argument area at @p args. Traps on missing
 * binding.
 */
extern "C" void lnbJitHostCall(InstanceContext* ctx, wasm::Value* args,
                               uint32_t import_idx);

/** memory.grow glue with the JIT's calling shape. */
extern "C" int32_t lnbJitMemoryGrow(InstanceContext* ctx,
                                    uint32_t delta_pages);

/** memory.size glue for shared-memory modules: refreshes the size mirror
 * (a synchronization point) before converting to pages. */
extern "C" uint32_t lnbJitMemorySize(InstanceContext* ctx);

/** memory.copy glue: bounds-checked memmove; traps on OOB. */
extern "C" void lnbJitMemoryCopy(InstanceContext* ctx, uint32_t dst,
                                 uint32_t src, uint32_t len);

/** memory.fill glue: bounds-checked memset; traps on OOB. */
extern "C" void lnbJitMemoryFill(InstanceContext* ctx, uint32_t dst,
                                 uint32_t value, uint32_t len);

/**
 * One glue entry for every atomic instruction the JIT compiles: the
 * assembler has no lock-prefixed encodings, so atomics become native
 * calls into the same seq_cst semantics the interpreters execute
 * (sem::atomicRmw), keeping all tiers bit-exact and TSAN-visible.
 * @p op_mode packs (AtomicOp, is64, CheckMode) via atomicOpMode().
 * v1/v2 carry the operands: store/rmw value, cmpxchg (expected,
 * replacement), notify (count), wait (expected, timeout_ns). Returns the
 * zero-extended result (loads/rmw old value, cmpxchg observed value,
 * notify woken count, wait outcome); stores return 0.
 */
extern "C" uint64_t lnbJitAtomic(InstanceContext* ctx, uint32_t addr,
                                 uint64_t v1, uint64_t v2, uint64_t offset,
                                 uint32_t op_mode);

/**
 * Epoch-interrupt island target for JIT code: generated polls load
 * ctx->interruptFlag and branch here when it is nonzero. Noreturn — it
 * raises the requested trap via siglongjmp, which is also why calling
 * native code from the island is safe despite JIT locals living in
 * caller-saved XMM registers: nothing after the call ever executes.
 */
extern "C" [[noreturn]] void lnbJitInterrupt(InstanceContext* ctx);

} // namespace lnb::exec

#endif // LNB_INTERP_EXEC_COMMON_H
