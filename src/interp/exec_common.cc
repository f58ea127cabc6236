#include <algorithm>
#include <cstring>
#include "interp/exec_common.h"

#include "interp/ops_inline.h"
#include "mem/signals.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "runtime/waitlist.h"

namespace lnb::exec {

namespace {

/** Executor-level probes: how often running wasm code re-enters the
 * runtime. Rare events only — the per-instruction dispatch loops stay
 * uninstrumented so strategy timings are unperturbed. */
struct ExecMetrics
{
    obs::Counter memoryGrows = obs::registerCounter(
        "exec.memory_grow_calls");
    obs::Counter hostCalls = obs::registerCounter("exec.host_calls");
    /** Threads subsystem: wait/notify traffic (threads.* in reports). */
    obs::Counter atomicWaits = obs::registerCounter("threads.waits");
    obs::Counter atomicWakes = obs::registerCounter("threads.wakes");
    obs::Counter atomicTimeouts = obs::registerCounter(
        "threads.wait_timeouts");
    obs::Counter atomicNotifies = obs::registerCounter(
        "threads.notifies");
    /** Waits that returned because the instance was interrupted. */
    obs::Counter atomicWaitInterrupts = obs::registerCounter(
        "threads.wait_interrupts");
};

ExecMetrics&
execMetrics()
{
    static ExecMetrics m;
    return m;
}

} // namespace

void
epochInterruptCheck(InstanceContext* ctx)
{
    uint32_t interval = ctx->epochInterval;
    // Re-arm first: when checks are disabled (interval 0) park the
    // countdown as far away as possible so the wrap path stays cold.
    ctx->epochCountdown = interval != 0 ? interval : ~0u;
    if (interval == 0)
        return;
    uint32_t kind = ctx->interruptFlag.load(std::memory_order_relaxed);
    if (kind != 0)
        mem::TrapManager::raiseTrap(wasm::TrapKind(kind));
}

const char*
tierName(Tier tier)
{
    switch (tier) {
      case Tier::host: return "host";
      case Tier::interp: return "interp";
      case Tier::queued: return "queued";
      case Tier::compiling: return "compiling";
      case Tier::jit: return "jit";
      case Tier::failed: return "failed";
    }
    return "?";
}

int32_t
execMemoryGrow(InstanceContext* ctx, uint32_t delta_pages)
{
    obs::ProfCategoryScope prof_cat(obs::ProfCategory::mem);
    ctx->blockingEvents++;
    execMetrics().memoryGrows.add();
    int64_t old_pages = ctx->memory->grow(delta_pages);
    if (old_pages < 0)
        return -1;
    // Refresh the context mirrors generated code reads.
    ctx->memBase = ctx->memory->base();
    ctx->memSize = ctx->memory->sizeBytes();
    return int32_t(old_pages);
}

uint32_t
execMemorySize(InstanceContext* ctx)
{
    // memory.size is a synchronization point on shared memories: a size
    // another thread grew (and made observable via its own sync op) must
    // be visible here.
    syncSharedSize(ctx);
    return uint32_t(ctx->memSize / wasm::kPageSize);
}

uint32_t
execAtomicWait(InstanceContext* ctx, uint32_t addr, uint64_t expected,
               int64_t timeout_ns, bool is64, uint64_t offset)
{
    const unsigned size = is64 ? 8 : 4;
    uint64_t ea = uint64_t(addr) + offset;
    // All checks run before any waiter-bucket lock is taken: a guard-page
    // SIGSEGV would siglongjmp out and leak the bucket mutex, so waits
    // bounds-check explicitly under every strategy.
    if ((ea & (size - 1)) != 0)
        mem::TrapManager::raiseTrap(wasm::TrapKind::unaligned_atomic);
    syncSharedSize(ctx);
    if (ea + size > ctx->memSize)
        mem::TrapManager::raiseTrap(wasm::TrapKind::out_of_bounds_memory);
    if (!ctx->sharedMem) {
        // Spec: waiting on an unshared memory traps (nothing could ever
        // wake the thread).
        mem::TrapManager::raiseTrap(wasm::TrapKind::atomic_wait_unshared);
    }
    ctx->blockingEvents++;
    execMetrics().atomicWaits.add();
    rt::WaitResult r = rt::waitListWait(ctx->memBase + ea, expected, is64,
                                        timeout_ns, &ctx->interruptFlag);
    if (r == rt::WaitResult::ok)
        execMetrics().atomicWakes.add();
    else if (r == rt::WaitResult::timed_out)
        execMetrics().atomicTimeouts.add();
    else if (r == rt::WaitResult::interrupted) {
        // The interrupt becomes a trap before wasm can observe the wait
        // result; the bucket lock is already released, so the clean-unwind
        // invariant (no locks held across siglongjmp) holds.
        execMetrics().atomicWaitInterrupts.add();
        uint32_t kind = ctx->interruptFlag.load(std::memory_order_relaxed);
        if (kind == 0)
            kind = uint32_t(wasm::TrapKind::interrupted);
        mem::TrapManager::raiseTrap(wasm::TrapKind(kind));
    }
    return uint32_t(r);
}

uint32_t
execAtomicNotify(InstanceContext* ctx, uint32_t addr, uint32_t count,
                 uint64_t offset)
{
    uint64_t ea = uint64_t(addr) + offset;
    if ((ea & 3) != 0)
        mem::TrapManager::raiseTrap(wasm::TrapKind::unaligned_atomic);
    syncSharedSize(ctx);
    if (ea + 4 > ctx->memSize)
        mem::TrapManager::raiseTrap(wasm::TrapKind::out_of_bounds_memory);
    execMetrics().atomicNotifies.add();
    if (!ctx->sharedMem)
        return 0; // validated + in bounds, but nothing can be waiting
    return rt::waitListNotify(ctx->memBase + ea, count);
}

extern "C" void
lnbJitHostCall(InstanceContext* ctx, wasm::Value* args, uint32_t import_idx)
{
    if (import_idx >= ctx->numHostFuncs ||
        ctx->hostFuncs[import_idx].fn == nullptr) {
        mem::TrapManager::raiseTrap(wasm::TrapKind::host_error);
    }
    obs::ProfCategoryScope prof_cat(obs::ProfCategory::host_wasi);
    ctx->blockingEvents++;
    execMetrics().hostCalls.add();
    HostFuncBinding& binding = ctx->hostFuncs[import_idx];
    // Mark the value stack in use up to the argument area so re-entrant
    // calls allocate their frames above the caller's.
    wasm::Value* saved_top = ctx->vstackTop;
    size_t arg_cells = std::max(binding.type->params.size(),
                                binding.type->results.size());
    ctx->vstackTop = args + arg_cells;
    binding.fn(ctx, args, binding.user);
    ctx->vstackTop = saved_top;
}

extern "C" int32_t
lnbJitMemoryGrow(InstanceContext* ctx, uint32_t delta_pages)
{
    return execMemoryGrow(ctx, delta_pages);
}

extern "C" uint32_t
lnbJitMemorySize(InstanceContext* ctx)
{
    return execMemorySize(ctx);
}

extern "C" void
lnbJitMemoryCopy(InstanceContext* ctx, uint32_t dst, uint32_t src,
                 uint32_t len)
{
    if (uint64_t(dst) + len > ctx->memSize ||
        uint64_t(src) + len > ctx->memSize) {
        mem::TrapManager::raiseTrap(wasm::TrapKind::out_of_bounds_memory);
    }
    std::memmove(ctx->memBase + dst, ctx->memBase + src, len);
}

extern "C" void
lnbJitMemoryFill(InstanceContext* ctx, uint32_t dst, uint32_t value,
                 uint32_t len)
{
    if (uint64_t(dst) + len > ctx->memSize)
        mem::TrapManager::raiseTrap(wasm::TrapKind::out_of_bounds_memory);
    std::memset(ctx->memBase + dst, int(uint8_t(value)), len);
}

namespace {

template <CheckMode M>
uint64_t
jitAtomicDispatch(InstanceContext* ctx, uint32_t addr, uint64_t v1,
                  uint64_t v2, uint64_t offset, AtomicOp op, bool is64)
{
    if (is64) {
        auto* p = reinterpret_cast<uint64_t*>(
            sem::atomicAddr<M>(ctx, addr, offset, 8));
        return sem::atomicRmw<uint64_t>(op, p, v1, v2);
    }
    auto* p = reinterpret_cast<uint32_t*>(
        sem::atomicAddr<M>(ctx, addr, offset, 4));
    return sem::atomicRmw<uint32_t>(op, p, uint32_t(v1), uint32_t(v2));
}

} // namespace

extern "C" uint64_t
lnbJitAtomic(InstanceContext* ctx, uint32_t addr, uint64_t v1, uint64_t v2,
             uint64_t offset, uint32_t op_mode)
{
    const auto op = AtomicOp(op_mode & 0xFF);
    const bool is64 = (op_mode & 0x100) != 0;
    const auto mode = CheckMode(op_mode >> 16);
    switch (op) {
      case AtomicOp::notify:
        return execAtomicNotify(ctx, addr, uint32_t(v1), offset);
      case AtomicOp::wait:
        return execAtomicWait(ctx, addr, v1, int64_t(v2), is64, offset);
      default:
        break;
    }
    switch (mode) {
      case CheckMode::raw:
        return jitAtomicDispatch<CheckMode::raw>(ctx, addr, v1, v2, offset,
                                                 op, is64);
      case CheckMode::clamp:
        return jitAtomicDispatch<CheckMode::clamp>(ctx, addr, v1, v2,
                                                   offset, op, is64);
      case CheckMode::trap:
        return jitAtomicDispatch<CheckMode::trap>(ctx, addr, v1, v2,
                                                  offset, op, is64);
    }
    mem::TrapManager::raiseTrap(wasm::TrapKind::host_error);
}

} // namespace lnb::exec
