/**
 * @file
 * Signal-based wall-clock sampling profiler with JIT symbolization.
 *
 * Each registered thread owns a POSIX interval timer
 * (timer_create/SIGEV_THREAD_ID -> SIGPROF, CLOCK_MONOTONIC) firing at
 * LNB_PROF_HZ. The handler attributes the interrupted program counter to
 * one of eight categories:
 *
 *   other | interp | jit_body | jit_bounds_check | tier_compile |
 *   host_wasi | mem | svc
 *
 * Attribution has two sources, PC wins over declaration:
 *
 *  1. PC symbolization — if the PC lies inside a registered JIT code
 *     region, the region's JitCodeInfo side table (mem/code_registry.h)
 *     yields (function index, tier, in-bounds-check-range). This is how
 *     `bounds_check_pct` is measured directly instead of inferred from
 *     whole-benchmark strategy deltas.
 *  2. Thread-declared category — RAII scopes (ProfCategoryScope) mark
 *     host/WASI glue, memory-management work, tier compilation and svc
 *     overhead; interpreter entries additionally push wasm frame markers
 *     (ProfFrameScope) onto a per-thread chain the handler walks for
 *     folded-stack output.
 *
 * Signal-safety contract (see DESIGN.md §11): the handler touches only
 * the thread's own pre-allocated state through lock-free atomics, the
 * SIGPROF action masks SIGSEGV/SIGBUS/SIGILL/SIGFPE (and the fault
 * handler in mem/signals.cc masks SIGPROF), and code-region removal
 * quiesces in-flight symbolization before code bytes are freed.
 *
 * A scope costs one relaxed load + branch when LNB_PROF_HZ is unset.
 *
 * Environment:
 *   LNB_PROF_HZ      sampling rate per thread, 0..10000 (default 0 = off)
 *   LNB_PROF_FOLDED  path for folded-stack output written at exit
 *                    (one "frame;frame;... count" line per unique stack,
 *                    feedable to flamegraph.pl / speedscope)
 */
#ifndef LNB_OBS_PROFILER_H
#define LNB_OBS_PROFILER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lnb::obs {

/** Sample categories; order is the wire order in reports. */
enum class ProfCategory : uint8_t
{
    other = 0,        ///< unattributed (runtime glue, idle remainder)
    interp,           ///< interpreter dispatch + handlers
    jit_body,         ///< generated code outside bounds-check ranges
    jit_bounds_check, ///< generated bounds-check instruction sequences
    tier_compile,     ///< background tier-up compilation
    host_wasi,        ///< host/WASI call glue
    mem,              ///< memory management (grow, mprotect, uffd)
    svc,              ///< service overhead (queueing, pools, dispatch)
};

constexpr int kNumProfCategories = 8;

/** Stable lower_snake name for category @p i ("interp", ...). */
const char* profCategoryName(int i);

/** Profiler tier tags (distinct from exec::Tier: adds "interp"). */
constexpr uint8_t kProfTierInterp = 0;
constexpr uint8_t kProfTierJitBase = 1;
constexpr uint8_t kProfTierJitOpt = 2;

/** "interp" / "jit_base" / "jit_opt". */
const char* profTierName(uint8_t tier);

/** Aggregated sample counts (process-wide or a delta between two). */
struct ProfileSnapshot
{
    uint64_t samples = 0;
    uint64_t categories[kNumProfCategories] = {};

    struct FuncSample
    {
        uint32_t funcIdx = 0;
        uint8_t tier = 0;
        uint64_t samples = 0;
        /** Subset of samples inside bounds-check PC ranges. */
        uint64_t boundsSamples = 0;
    };
    /** Per-(function, tier) self samples, sorted descending. */
    std::vector<FuncSample> funcs;

    /**
     * Share of execution-time samples spent in JIT bounds-check
     * sequences: 100 * jit_bounds_check / (interp + jit_body +
     * jit_bounds_check + host_wasi + mem). Excludes tier_compile / svc /
     * other so background compilation does not dilute the ratio.
     */
    double boundsCheckPct() const;
};

namespace prof {

/** What the JIT code map reports for one PC (mirrors mem::JitPcInfo so
 * the obs layer needs no upward include). */
struct JitPcSample
{
    static constexpr uint32_t kNoFunc = UINT32_MAX;
    uint32_t funcIdx = kNoFunc;
    uint8_t tier = 0;
    bool inBoundsCheck = false;
};

/** Async-signal-safe PC classifier; returns true iff PC is JIT code. */
using JitPcClassifier = bool (*)(const void* pc, JitPcSample* out);

/** Install the classifier (mem/code_registry.cc does this when the
 * first code region registers). Idempotent, thread-safe. */
void setJitPcClassifier(JitPcClassifier classifier);

} // namespace prof

namespace detail {

/** Cached tri-state: 0 unknown, 1 off, 2 on (mirrors g_traceState). */
extern std::atomic<int> g_profState;

bool profEnabledSlow();

inline bool
profActive()
{
    int state = g_profState.load(std::memory_order_relaxed);
    if (state == 0)
        return profEnabledSlow();
    return state == 2;
}

struct ProfThreadState; // profiler.cc internal

/** This thread's profiler state; null until registered. Plain constinit
 * pointer so every TLS access is a direct load (no TLS-init wrapper),
 * which keeps the SIGPROF handler's access async-signal-safe. */
extern constinit thread_local ProfThreadState* t_profState;

/** Stack-allocated wasm frame marker; linked through the thread chain. */
struct ProfFrame
{
    uint32_t funcIdx = 0;
    uint8_t tier = 0;
    uint8_t prevCategory = 0;
    ProfFrame* prev = nullptr;
};

/** Register this thread (create + arm its timer). Idempotent. */
ProfThreadState* registerProfThread();

ProfThreadState* pushProfFrame(ProfFrame* frame, uint32_t func_idx,
                               uint8_t tier);
void popProfFrame(ProfThreadState* state, ProfFrame* frame);

ProfThreadState* setProfCategory(uint8_t category, uint8_t* prev);
void restoreProfCategory(ProfThreadState* state, uint8_t prev);

} // namespace detail

namespace prof {

/**
 * Capture / restore this thread's (frame chain top, category) pair.
 * Both are async-signal-safe; mem/signals.cc snapshots the mark into
 * each TrapFrame and restores it before siglongjmp, so trap unwinding
 * (which skips C++ destructors) never leaves the chain dangling into
 * dead stack frames.
 */
void currentMark(void** top, uint8_t* category);
void restoreMark(void* top, uint8_t category);

/** Arm the sampler for this thread if profiling is on. Cheap when off.
 * Called at execution entry points so every wasm-running thread has a
 * timer even when it never crosses an instrumented scope. */
inline void
ensureThreadRegistered()
{
    if (detail::profActive() && detail::t_profState == nullptr)
        detail::registerProfThread();
}

} // namespace prof

/** RAII wasm frame marker + interp category (interpreter entries). */
class ProfFrameScope
{
  public:
    ProfFrameScope(uint32_t func_idx, uint8_t tier)
    {
        if (detail::profActive())
            state_ = detail::pushProfFrame(&frame_, func_idx, tier);
    }

    ~ProfFrameScope()
    {
        if (state_ != nullptr)
            detail::popProfFrame(state_, &frame_);
    }

    ProfFrameScope(const ProfFrameScope&) = delete;
    ProfFrameScope& operator=(const ProfFrameScope&) = delete;

  private:
    detail::ProfThreadState* state_ = nullptr;
    detail::ProfFrame frame_;
};

/** RAII declared-category scope (host glue, mem ops, tier compile, svc). */
class ProfCategoryScope
{
  public:
    explicit ProfCategoryScope(ProfCategory category)
    {
        if (detail::profActive())
            state_ = detail::setProfCategory(uint8_t(category), &prev_);
    }

    ~ProfCategoryScope()
    {
        if (state_ != nullptr)
            detail::restoreProfCategory(state_, prev_);
    }

    ProfCategoryScope(const ProfCategoryScope&) = delete;
    ProfCategoryScope& operator=(const ProfCategoryScope&) = delete;

  private:
    detail::ProfThreadState* state_ = nullptr;
    uint8_t prev_ = 0;
};

/** Configured sampling rate (LNB_PROF_HZ or testing override); 0 = off. */
int profilerHz();

/** True when sampling is active. */
bool profilerEnabled();

/**
 * Force the sampling rate (tests). Re-arms the timers of every already
 * registered thread; 0 disarms. Not meant for concurrent use with
 * workload threads mid-run.
 */
void setProfilerHzForTesting(int hz);

/** Aggregate sample counts across all threads (live + exited). Weakly
 * consistent while samplers run; non-destructive. */
ProfileSnapshot snapshotProfile();

/** after - before, per category and per function (clamped at 0). */
ProfileSnapshot profileDelta(const ProfileSnapshot& before,
                             const ProfileSnapshot& after);

/**
 * Drain every thread's stack-sample ring into aggregated folded lines
 * ("root;...;leaf", count), sorted descending by count. Destructive:
 * drained samples leave the rings (category totals are unaffected).
 */
std::vector<std::pair<std::string, uint64_t>> collectFoldedStacks();

/** Drain + write folded lines to @p path (flamegraph.pl format). */
bool writeFoldedStacks(const std::string& path);

/** Path from LNB_PROF_FOLDED, or empty (read once). */
const std::string& profFoldedPath();

} // namespace lnb::obs

#endif // LNB_OBS_PROFILER_H
