#include "mem/signals.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <unistd.h>

#if __has_include(<linux/userfaultfd.h>)
#include <linux/userfaultfd.h>
#define LNB_HAVE_UFFD_HEADER 1
#endif

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <mutex>

#include "mem/arena_registry.h"
#include "mem/code_registry.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "support/log.h"

namespace lnb::mem {

namespace {

thread_local TrapFrame* t_topFrame = nullptr;
std::atomic<uint64_t> g_trapCount{0};

// Signal handlers must not touch the sharded metric registry (claiming
// a shard is not async-signal-safe), so the fault-classification
// outcomes live in plain global atomics exposed to obs as external
// counters at install() time.
std::atomic<uint64_t> g_faultsResolved{0}; ///< lazily populated pages
std::atomic<uint64_t> g_faultsTrapped{0};  ///< faults -> wasm OOB traps
std::atomic<uint64_t> g_faultsReraised{0}; ///< not ours; default action
std::atomic<uint64_t> g_pollFaults{0};     ///< polls that raised a kill
std::atomic<uint64_t> g_pollStaleDisarms{0}; ///< armed pages, flag clear

/** Byte the JIT places after each ud2 to identify the trap kind. */
constexpr size_t kTrapKindByteOffset = 2; // sizeof(ud2)

[[noreturn]] void
jumpToFrame(wasm::TrapKind kind)
{
    TrapFrame* frame = t_topFrame;
    if (frame == nullptr) {
        // A fault was classified as a wasm trap, but nobody is executing
        // wasm on this thread: internal bug; die loudly.
        LNB_ERROR("wasm trap (%s) with no recovery frame",
                  wasm::trapKindName(kind));
        std::abort();
    }
    g_trapCount.fetch_add(1, std::memory_order_relaxed);
    frame->kind = kind;
    // Re-sync the profiler's frame chain with the stack state we are
    // about to jump back to (async-signal-safe: two relaxed TLS stores).
    obs::prof::restoreMark(frame->profTop, frame->profCategory);
    siglongjmp(frame->buf, 1);
}

void
reraiseAsDefault(int sig, siginfo_t* info)
{
    struct sigaction sa;
    sa.sa_handler = SIG_DFL;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(sig, &sa, nullptr);
    // Returning re-executes the faulting instruction, which re-raises with
    // default disposition (core dump / termination).
}

/** Count one fault a uffd-style arena resolved by populating. */
void
countPopulated(ArenaInfo* arena)
{
    arena->faultsHandled.fetch_add(1, std::memory_order_relaxed);
    g_faultsResolved.fetch_add(1, std::memory_order_relaxed);
}

#ifdef LNB_HAVE_UFFD_HEADER
/** Map zero pages over [start, start + len); true when the ioctl filled
 * the whole range, else @p error holds its negative errno. Leaves errno
 * as the interrupted code had it. */
bool
zeroRange(int uffd, uintptr_t start, uint64_t len, int64_t& error)
{
    struct uffdio_zeropage zp;
    zp.range.start = start;
    zp.range.len = len;
    zp.mode = 0;
    zp.zeropage = 0;
    const int saved_errno = errno;
    const bool ok = ioctl(uffd, UFFDIO_ZEROPAGE, &zp) == 0;
    error = ok ? 0 : zp.zeropage < 0 ? zp.zeropage : -errno;
    errno = saved_errno;
    return ok;
}
#endif

/**
 * Try to lazily populate the faulted page of a uffd-style arena: the
 * fault lies at @p offset past the arena's @p base, below its size
 * @p bounds.
 */
bool
populatePage(ArenaInfo* arena, uintptr_t base, uint64_t offset,
             uint64_t bounds)
{
    const uintptr_t page = (base + offset) & ~uintptr_t(4095);

    if (arena->kind == ArenaKind::uffd_emu) {
        // Emulation: grant access to exactly one page. Unlike a grow-time
        // mprotect of the whole new range, this touches page-granular
        // state only (DESIGN.md substitution 4).
        if (mprotect(reinterpret_cast<void*>(page), 4096,
                     PROT_READ | PROT_WRITE) != 0) {
            return false;
        }
        countPopulated(arena);
        return true;
    }

#ifdef LNB_HAVE_UFFD_HEADER
    if (arena->kind == ArenaKind::uffd_real && arena->uffdFd >= 0) {
        // The size is a multiple of 64 KiB, so the whole wasm page that
        // holds the fault lies below it: populate it in one ioctl, one
        // signal per wasm page instead of sixteen. If part of it is
        // already present the ioctl stops with EEXIST; then populate
        // just the faulting 4 KiB page.
        const uint64_t wasm_page = offset & ~(wasm::kPageSize - 1);
        int64_t error = 0;
        if ((wasm_page + wasm::kPageSize <= bounds &&
             zeroRange(arena->uffdFd, base + wasm_page, wasm::kPageSize,
                       error)) ||
            zeroRange(arena->uffdFd, page, 4096, error) ||
            error == -EEXIST) {
            countPopulated(arena);
            return true;
        }
        return false;
    }
#endif
    return false;
}

/**
 * An epoch poll that found its page armed: raise the trap kind the
 * interrupt flag holds. A clear flag means the arm is stale (a kill
 * raced the flag's clearing): disarm and let the poll retry. False when
 * the fault is no poll: not at a JIT pc, or not on the page below the
 * JIT's context register (rbp).
 */
bool
handlePollFault(siginfo_t* info, void* ucontext)
{
    auto* uc = static_cast<ucontext_t*>(ucontext);
    auto pc = reinterpret_cast<const uint8_t*>(
        uc->uc_mcontext.gregs[REG_RIP]);
    auto ctx = uintptr_t(uc->uc_mcontext.gregs[REG_RBP]);
    auto addr = reinterpret_cast<uintptr_t>(info->si_addr);
    if (addr >= ctx || ctx - addr > kPollPageBytes ||
        !CodeRegionRegistry::contains(pc)) {
        return false;
    }
    const auto& flag = *reinterpret_cast<const std::atomic<uint32_t>*>(
        ctx + kPollFlagOffset);
    uint32_t kind = flag.load(std::memory_order_seq_cst);
    if (kind == 0) {
        g_pollStaleDisarms.fetch_add(1, std::memory_order_relaxed);
        syncPollPage(flag);
        return true; // retry the poll
    }
    g_pollFaults.fetch_add(1, std::memory_order_relaxed);
    jumpToFrame(wasm::TrapKind(kind));
}

void
faultHandler(int sig, siginfo_t* info, void* ucontext)
{
    if (sig == SIGSEGV || sig == SIGBUS) {
        ArenaInfo* arena = ArenaRegistry::find(info->si_addr);
        if (arena != nullptr) {
            auto addr = reinterpret_cast<uintptr_t>(info->si_addr);
            auto base = reinterpret_cast<uintptr_t>(
                arena->base.load(std::memory_order_acquire));
            uint64_t offset = addr - base;
            uint64_t bounds = arena->bounds.load(std::memory_order_acquire);
            bool lazy = arena->kind == ArenaKind::uffd_emu ||
                        arena->kind == ArenaKind::uffd_real;
            if (lazy && offset < bounds) {
                if (populatePage(arena, base, offset, bounds))
                    return; // retry the faulting instruction
            }
            arena->faultsTrapped.fetch_add(1, std::memory_order_relaxed);
            g_faultsTrapped.fetch_add(1, std::memory_order_relaxed);
            jumpToFrame(wasm::TrapKind::out_of_bounds_memory);
        }
        if (sig == SIGSEGV && handlePollFault(info, ucontext))
            return;
        g_faultsReraised.fetch_add(1, std::memory_order_relaxed);
        reraiseAsDefault(sig, info);
        return;
    }

    // SIGILL / SIGFPE: meaningful only inside generated code.
    auto* uc = static_cast<ucontext_t*>(ucontext);
    auto pc = reinterpret_cast<const uint8_t*>(
        uc->uc_mcontext.gregs[REG_RIP]);
    if (!CodeRegionRegistry::contains(pc)) {
        reraiseAsDefault(sig, info);
        return;
    }
    if (sig == SIGFPE) {
        // The JIT checks the INT_MIN/-1 case explicitly, so a hardware #DE
        // in generated code is always a divide by zero.
        jumpToFrame(wasm::TrapKind::integer_divide_by_zero);
    }
    // SIGILL: the kind byte follows the ud2 instruction.
    wasm::TrapKind kind = wasm::TrapKind(pc[kTrapKindByteOffset]);
    if (kind == wasm::TrapKind::none || kind > wasm::TrapKind::host_error)
        kind = wasm::TrapKind::unreachable;
    jumpToFrame(kind);
}

std::once_flag g_installOnce;

} // namespace

void
syncPollPage(const std::atomic<uint32_t>& flag)
{
    auto* page = reinterpret_cast<void*>(
        reinterpret_cast<uintptr_t>(&flag) - kPollFlagOffset -
        kPollPageBytes);
    bool armed = flag.load(std::memory_order_seq_cst) != 0;
    for (;;) {
        mprotect(page, kPollPageBytes,
                 armed ? PROT_NONE : PROT_READ | PROT_WRITE);
        bool want = flag.load(std::memory_order_seq_cst) != 0;
        if (want == armed)
            return;
        armed = want;
    }
}

void
TrapManager::install()
{
    std::call_once(g_installOnce, [] {
        // Published to the metrics registry as read-only sources: the
        // handlers themselves only ever touch these plain atomics.
        obs::registerExternalCounter("mem.faults_resolved",
                                     &g_faultsResolved);
        obs::registerExternalCounter("mem.faults_trapped",
                                     &g_faultsTrapped);
        obs::registerExternalCounter("mem.poll_faults", &g_pollFaults);
        obs::registerExternalCounter("mem.poll_stale_disarms",
                                     &g_pollStaleDisarms);
        obs::registerExternalCounter("signals.reraised",
                                     &g_faultsReraised);
        obs::registerExternalCounter("signals.wasm_traps", &g_trapCount);
        struct sigaction sa;
        sa.sa_sigaction = faultHandler;
        sigemptyset(&sa.sa_mask);
        // Keep the sampler out of fault classification: SIGPROF stays
        // blocked while this handler runs (the profiler symmetrically
        // masks the fault signals in its SIGPROF action).
        sigaddset(&sa.sa_mask, SIGPROF);
        // SA_NODEFER so nested faults (e.g. during population) still reach
        // us; SA_ONSTACK is unnecessary since frames are shallow.
        sa.sa_flags = SA_SIGINFO | SA_NODEFER;
        for (int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE}) {
            if (sigaction(sig, &sa, nullptr) != 0)
                LNB_ERROR("failed to install handler for signal %d", sig);
        }
    });
}

void
TrapManager::raiseTrap(wasm::TrapKind kind)
{
    // Unlike the fault handler above, raiseTrap only runs in normal
    // context (interpreter check failures, host glue), so the sharded
    // registry is safe here.
    static const obs::Counter c_raised =
        obs::registerCounter("exec.traps_raised");
    c_raised.add();
    jumpToFrame(kind);
}

bool
TrapManager::inProtectedScope()
{
    return t_topFrame != nullptr;
}

uint64_t
TrapManager::trapCount()
{
    return g_trapCount.load(std::memory_order_relaxed);
}

void
TrapManager::pushFrame(TrapFrame* frame)
{
    frame->prev = t_topFrame;
    obs::prof::currentMark(&frame->profTop, &frame->profCategory);
    t_topFrame = frame;
}

void
TrapManager::popFrame(TrapFrame* frame)
{
    t_topFrame = frame->prev;
}

} // namespace lnb::mem
