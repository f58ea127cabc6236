/**
 * @file
 * POSIX signal plumbing that turns hardware faults into WebAssembly traps.
 *
 * The guard-page strategies (`mprotect`, `uffd`) and the JIT's `trap`
 * strategy rely on the OS delivering SIGSEGV/SIGBUS/SIGILL/SIGFPE for
 * illegal operations. The handler classifies the fault:
 *
 *  - data faults inside a registered linear-memory arena are either
 *    resolved (uffd lazy population of one page) or converted into a wasm
 *    trap by longjmp-ing to the innermost recovery frame of the faulting
 *    thread;
 *  - SIGILL/SIGFPE with the program counter inside a registered JIT code
 *    region are wasm traps (the JIT encodes the trap kind in a byte after
 *    each ud2 island);
 *  - a SIGSEGV at a JIT pc on the poll page below the context register
 *    is an epoch poll that found its instance interrupted (see
 *    kPollPageBytes);
 *  - anything else is re-raised with default disposition: a real crash
 *    stays a crash.
 */
#ifndef LNB_MEM_SIGNALS_H
#define LNB_MEM_SIGNALS_H

#include <atomic>
#include <csetjmp>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "wasm/types.h"

namespace lnb::mem {

/**
 * The epoch poll page (DESIGN.md §6). Every InstanceContext sits
 * page-aligned directly above one page of its own mapping, and JIT code
 * polls for interrupts with one load from that page. Instance::interrupt()
 * makes the page unreadable after it sets the interrupt flag; the poll's
 * SIGSEGV then raises the trap kind the flag holds. exec_common.h asserts
 * that the flag sits at kPollFlagOffset in the context.
 */
constexpr size_t kPollPageBytes = 4096;
constexpr size_t kPollFlagOffset = 0x50;

/**
 * Make the poll page of the context whose interrupt flag is @p flag
 * unreadable while the flag is nonzero and readable while it is zero.
 * Re-reads the flag after each mprotect, so callers racing on one flag
 * leave the page matching its last value. Async-signal-safe.
 */
void syncPollPage(const std::atomic<uint32_t>& flag);

/**
 * Per-thread trap recovery frame. Frames nest (wasm -> host -> wasm), the
 * innermost one wins.
 */
struct TrapFrame
{
    sigjmp_buf buf;
    TrapFrame* prev = nullptr;
    wasm::TrapKind kind = wasm::TrapKind::none;
    /**
     * Profiler mark (frame-chain top + declared category) captured at
     * pushFrame. Trap unwinding siglongjmps past C++ destructors, so
     * jumpToFrame restores this mark before jumping — otherwise the
     * SIGPROF sampler would walk marker frames on dead stack below the
     * recovery point. See obs/profiler.h (currentMark/restoreMark).
     */
    void* profTop = nullptr;
    uint8_t profCategory = 0;
};

class TrapManager
{
  public:
    /** Install the signal handlers (idempotent, thread-safe). */
    static void install();

    /**
     * Run @p fn with a trap recovery frame on this thread. Returns
     * TrapKind::none on normal completion, or the trap that unwound @p fn.
     * Nesting is allowed.
     */
    template <typename F>
    static wasm::TrapKind
    protect(F&& fn)
    {
        TrapFrame frame;
        pushFrame(&frame);
        if (sigsetjmp(frame.buf, 1) == 0) {
            std::forward<F>(fn)();
            popFrame(&frame);
            return wasm::TrapKind::none;
        }
        popFrame(&frame);
        return frame.kind;
    }

    /**
     * Raise a wasm trap from runtime C++ code (interpreter checks, host
     * functions). Must run under an active protect() frame; aborts
     * otherwise.
     */
    [[noreturn]] static void raiseTrap(wasm::TrapKind kind);

    /** True if the calling thread has an active recovery frame. */
    static bool inProtectedScope();

    /** Total faults converted to traps, process-wide (diagnostics). */
    static uint64_t trapCount();

  private:
    static void pushFrame(TrapFrame* frame);
    static void popFrame(TrapFrame* frame);
};

} // namespace lnb::mem

#endif // LNB_MEM_SIGNALS_H
