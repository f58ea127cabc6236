#include "obs/profiler.h"

#include <errno.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/env.h"
#include "support/log.h"

#ifdef __linux__
#include <sys/syscall.h>
#endif

namespace lnb::obs {

const char*
profCategoryName(int i)
{
    static const char* kNames[kNumProfCategories] = {
        "other",        "interp",    "jit_body", "jit_bounds_check",
        "tier_compile", "host_wasi", "mem",      "svc",
    };
    return (i >= 0 && i < kNumProfCategories) ? kNames[i] : "?";
}

const char*
profTierName(uint8_t tier)
{
    switch (tier) {
    case kProfTierInterp: return "interp";
    case kProfTierJitBase: return "jit_base";
    case kProfTierJitOpt: return "jit_opt";
    default: return "?";
    }
}

double
ProfileSnapshot::boundsCheckPct() const
{
    uint64_t exec = categories[int(ProfCategory::interp)] +
                    categories[int(ProfCategory::jit_body)] +
                    categories[int(ProfCategory::jit_bounds_check)] +
                    categories[int(ProfCategory::host_wasi)] +
                    categories[int(ProfCategory::mem)];
    if (exec == 0)
        return 0.0;
    return 100.0 *
           double(categories[int(ProfCategory::jit_bounds_check)]) /
           double(exec);
}

namespace prof {

namespace {
std::atomic<JitPcClassifier> g_classifier{nullptr};
} // namespace

void
setJitPcClassifier(JitPcClassifier classifier)
{
    g_classifier.store(classifier, std::memory_order_release);
}

/** Async-signal-safe read of the installed classifier (TU-internal). */
JitPcClassifier
installedJitPcClassifier()
{
    return g_classifier.load(std::memory_order_acquire);
}

} // namespace prof

namespace detail {

std::atomic<int> g_profState{0};
constinit thread_local ProfThreadState* t_profState = nullptr;

namespace {

constexpr int kMaxStackDepth = 16; ///< marker frames kept per sample
constexpr int kStackRing = 1024;   ///< raw stack samples per thread
constexpr int kFuncSlots = 512;    ///< per-thread (func, tier) table

/** Total samples across all threads; plain global atomic bumped from the
 * handler and exposed through registerExternalCounter. */
std::atomic<uint64_t> g_totalSamples{0};
std::atomic<uint64_t> g_funcTableOverflow{0};

std::atomic<int> g_profHz{0};

/** funcIdx | tier<<32 | tag bit so key 0 means "empty slot". */
constexpr uint64_t kFuncKeyTag = uint64_t(1) << 63;

inline uint64_t
funcKey(uint32_t func_idx, uint8_t tier)
{
    return kFuncKeyTag | (uint64_t(tier) << 32) | func_idx;
}

/** One raw sample as captured in the handler (fixed size, no heap). */
struct StackSample
{
    uint8_t depth = 0;
    uint8_t category = 0;
    /** frames[0] is the leaf; funcIdx | tier<<32 per entry. */
    uint64_t frames[kMaxStackDepth];
};

} // namespace

/**
 * Per-thread profiler state. Allocated in normal context at
 * registration; the handler (same thread) and snapshot readers (other
 * threads) touch it only through the atomics. Freed on thread exit
 * after the timer is deleted and SIGPROF is blocked.
 */
struct ProfThreadState
{
    std::atomic<ProfFrame*> topFrame{nullptr};
    std::atomic<uint8_t> category{uint8_t(ProfCategory::other)};

    std::atomic<uint64_t> samples{0};
    std::atomic<uint64_t> categories[kNumProfCategories] = {};

    struct FuncSlot
    {
        std::atomic<uint64_t> key{0};
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> bounds{0};
    };
    FuncSlot funcs[kFuncSlots];

    StackSample ring[kStackRing];
    std::atomic<uint32_t> ringNext{0};
    std::atomic<uint64_t> ringRecorded{0};
    /**
     * Fold gate for the non-atomic ring entries, same Dekker-style
     * store-load protocol as CodeRegionRegistry's lookup gate: the
     * handler increments ringWriters (seq_cst) and then checks
     * ringFolding — if a cross-thread fold is in progress it skips the
     * ring write entirely (category/function counters above are atomic
     * and still counted; only the flamegraph sample is dropped). A
     * folder raises ringFolding (seq_cst) and spins until ringWriters
     * drains, so it never reads a half-written StackSample or resets
     * the cursors under a concurrently running handler.
     */
    std::atomic<uint32_t> ringWriters{0};
    std::atomic<bool> ringFolding{false};

    timer_t timer{};
    bool timerArmed = false;
    uint32_t tid = 0;
};

namespace {

/** Aggregation keyed by funcKey; used by snapshots and retirement. */
using FuncMap = std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>>;

struct ProfCollector
{
    std::mutex mutex;
    std::vector<ProfThreadState*> states; ///< live threads
    /** Category/function totals folded in by exited threads. */
    uint64_t retiredSamples = 0;
    uint64_t retiredCategories[kNumProfCategories] = {};
    FuncMap retiredFuncs;
    /** Folded stack lines of exited threads. */
    std::unordered_map<std::string, uint64_t> retiredFolded;
    std::string foldedPath; ///< from LNB_PROF_FOLDED
};

/** Immortal (leaked) so SIGPROF handlers, thread-exit folds and the
 * atexit flush never race static destruction. */
ProfCollector&
collector()
{
    static ProfCollector* c = new ProfCollector();
    return *c;
}

void foldRingLocked(ProfThreadState& state,
                    std::unordered_map<std::string, uint64_t>& out);

uint32_t
profTid()
{
#ifdef __linux__
    return uint32_t(syscall(SYS_gettid));
#else
    return uint32_t(getpid());
#endif
}

// ---- SIGPROF handler ---------------------------------------------------

void
sigprofHandler(int, siginfo_t*, void* ucontext)
{
    int saved_errno = errno;
    ProfThreadState* s = t_profState;
    if (s == nullptr) {
        errno = saved_errno;
        return;
    }

    uintptr_t pc = 0;
#if defined(__linux__) && defined(__x86_64__)
    auto* uc = static_cast<ucontext_t*>(ucontext);
    pc = uintptr_t(uc->uc_mcontext.gregs[REG_RIP]);
#else
    (void)ucontext;
#endif

    // Attribution: PC inside a registered JIT region wins; otherwise the
    // thread-declared category applies (interp entries declare interp).
    uint8_t category = s->category.load(std::memory_order_relaxed);
    prof::JitPcSample jit;
    bool in_jit = false;
    prof::JitPcClassifier classify = prof::installedJitPcClassifier();
    if (classify != nullptr && pc != 0)
        in_jit = classify(reinterpret_cast<const void*>(pc), &jit);
    if (in_jit) {
        category = uint8_t(jit.inBoundsCheck
                               ? ProfCategory::jit_bounds_check
                               : ProfCategory::jit_body);
    }

    s->categories[category].fetch_add(1, std::memory_order_relaxed);
    s->samples.fetch_add(1, std::memory_order_relaxed);
    g_totalSamples.fetch_add(1, std::memory_order_relaxed);

    // Leaf for the (function, tier) table: symbolized JIT frame, else
    // the innermost interpreter marker when interpreting.
    uint32_t leaf_func = prof::JitPcSample::kNoFunc;
    uint8_t leaf_tier = 0;
    bool leaf_bounds = false;
    ProfFrame* top = s->topFrame.load(std::memory_order_relaxed);
    if (in_jit && jit.funcIdx != prof::JitPcSample::kNoFunc) {
        leaf_func = jit.funcIdx;
        leaf_tier = jit.tier;
        leaf_bounds = jit.inBoundsCheck;
    } else if (!in_jit && top != nullptr &&
               category == uint8_t(ProfCategory::interp)) {
        leaf_func = top->funcIdx;
        leaf_tier = top->tier;
    }

    if (leaf_func != prof::JitPcSample::kNoFunc) {
        uint64_t key = funcKey(leaf_func, leaf_tier);
        // Open addressing over the thread-private table. Only this
        // thread's handler writes it and SIGPROF is masked during
        // delivery, so plain claim-then-bump is race-free; atomics make
        // the cross-thread snapshot reads tear-free.
        uint64_t h = key * UINT64_C(0x9E3779B97F4A7C15);
        bool stored = false;
        for (int probe = 0; probe < kFuncSlots; probe++) {
            ProfThreadState::FuncSlot& slot =
                s->funcs[(h + uint64_t(probe)) % kFuncSlots];
            uint64_t cur = slot.key.load(std::memory_order_relaxed);
            if (cur == 0) {
                slot.key.store(key, std::memory_order_relaxed);
                cur = key;
            }
            if (cur == key) {
                slot.count.fetch_add(1, std::memory_order_relaxed);
                if (leaf_bounds)
                    slot.bounds.fetch_add(1,
                                          std::memory_order_relaxed);
                stored = true;
                break;
            }
        }
        if (!stored)
            g_funcTableOverflow.fetch_add(1,
                                          std::memory_order_relaxed);
    }

    // Raw stack capture for folded output: walk the marker chain
    // (bounded, monotonicity-checked — the chain lives on this thread's
    // stack and grows toward higher addresses as frames unwind). The
    // ring entries are non-atomic, so the write is guarded by the fold
    // gate: while another thread folds this ring the sample is dropped
    // from the flamegraph (counters above already recorded it).
    s->ringWriters.fetch_add(1, std::memory_order_seq_cst);
    if (!s->ringFolding.load(std::memory_order_seq_cst)) {
        uint32_t slot_idx =
            s->ringNext.load(std::memory_order_relaxed) % kStackRing;
        StackSample& sample = s->ring[slot_idx];
        int depth = 0;
        if (in_jit && jit.funcIdx != prof::JitPcSample::kNoFunc) {
            sample.frames[depth++] =
                jit.funcIdx | (uint64_t(jit.tier) << 32);
        }
        uintptr_t prev_addr = 0;
        for (ProfFrame* f = top; f != nullptr && depth < kMaxStackDepth;
             f = f->prev) {
            auto addr = reinterpret_cast<uintptr_t>(f);
            if (prev_addr != 0 &&
                (addr <= prev_addr || addr - prev_addr > (64u << 20)))
                break; // chain corrupt (should not happen); stop walking
            sample.frames[depth++] =
                f->funcIdx | (uint64_t(f->tier) << 32);
            prev_addr = addr;
        }
        sample.depth = uint8_t(depth);
        sample.category = category;
        s->ringNext.store((slot_idx + 1) % kStackRing,
                          std::memory_order_relaxed);
        s->ringRecorded.fetch_add(1, std::memory_order_relaxed);
    }
    s->ringWriters.fetch_sub(1, std::memory_order_release);

    errno = saved_errno;
}

// ---- timer / registration ---------------------------------------------

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

bool
armTimer(ProfThreadState* state, int hz)
{
    if (hz <= 0) {
        if (state->timerArmed) {
            struct itimerspec off = {};
            timer_settime(state->timer, 0, &off, nullptr);
        }
        return true;
    }
    if (!state->timerArmed) {
        struct sigevent sev;
        std::memset(&sev, 0, sizeof(sev));
        sev.sigev_notify = SIGEV_THREAD_ID;
        sev.sigev_signo = SIGPROF;
        sev.sigev_notify_thread_id = int(state->tid);
        if (timer_create(CLOCK_MONOTONIC, &sev, &state->timer) != 0) {
            LNB_WARN("prof: timer_create failed (errno %d)", errno);
            return false;
        }
        state->timerArmed = true;
    }
    long period_ns = 1000000000L / hz;
    struct itimerspec spec;
    spec.it_interval.tv_sec = period_ns / 1000000000L;
    spec.it_interval.tv_nsec = period_ns % 1000000000L;
    spec.it_value = spec.it_interval;
    if (timer_settime(state->timer, 0, &spec, nullptr) != 0) {
        LNB_WARN("prof: timer_settime failed (errno %d)", errno);
        return false;
    }
    return true;
}

void
installSigprofAction()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = sigprofHandler;
    sigemptyset(&sa.sa_mask);
    // Never interleave sampling with fault classification: the fault
    // handler symmetrically masks SIGPROF (mem/signals.cc).
    sigaddset(&sa.sa_mask, SIGSEGV);
    sigaddset(&sa.sa_mask, SIGBUS);
    sigaddset(&sa.sa_mask, SIGILL);
    sigaddset(&sa.sa_mask, SIGFPE);
    // SA_RESTART: sampled threads must not see spurious EINTR.
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
        LNB_ERROR("prof: failed to install SIGPROF handler");
}

std::once_flag g_initOnce;
std::once_flag g_armOnce;

/** One-time SIGPROF action + external-counter registration. */
void
ensureSamplerInstalled()
{
    std::call_once(g_armOnce, [] {
        registerExternalCounter("prof.samples", &g_totalSamples);
        registerExternalCounter("prof.func_table_overflow",
                                &g_funcTableOverflow);
        installSigprofAction();
    });
}

void
profInit()
{
    std::call_once(g_initOnce, [] {
        int hz = int(envInt("LNB_PROF_HZ", 0, 0, 10000));
        const char* folded = std::getenv("LNB_PROF_FOLDED");
        if (folded != nullptr && folded[0] != '\0')
            collector().foldedPath = folded;
        g_profHz.store(hz, std::memory_order_relaxed);
        if (hz > 0)
            ensureSamplerInstalled();
        // Hook the atexit flush (folded output rides on it).
        ensureObsInit();
        int expected = 0;
        g_profState.compare_exchange_strong(expected,
                                            hz > 0 ? 2 : 1);
    });
}

void
unregisterProfThread(ProfThreadState* state)
{
    // Order matters: block SIGPROF first so a timer that already fired
    // cannot run the handler over freed state, then delete the timer
    // (a blocked pending SIGPROF dies with the thread).
    sigset_t block;
    sigemptyset(&block);
    sigaddset(&block, SIGPROF);
    pthread_sigmask(SIG_BLOCK, &block, nullptr);
    if (state->timerArmed)
        timer_delete(state->timer);
    t_profState = nullptr;

    ProfCollector& c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.retiredSamples += state->samples.load(std::memory_order_relaxed);
    for (int i = 0; i < kNumProfCategories; i++)
        c.retiredCategories[i] +=
            state->categories[i].load(std::memory_order_relaxed);
    for (ProfThreadState::FuncSlot& slot : state->funcs) {
        uint64_t key = slot.key.load(std::memory_order_relaxed);
        if (key == 0)
            continue;
        auto& acc = c.retiredFuncs[key];
        acc.first += slot.count.load(std::memory_order_relaxed);
        acc.second += slot.bounds.load(std::memory_order_relaxed);
    }
    foldRingLocked(*state, c.retiredFolded);
    c.states.erase(std::find(c.states.begin(), c.states.end(), state));
    delete state;
}

/** Owns one thread's profiler state; retires it on thread exit. */
struct ProfThreadOwner
{
    ProfThreadState* state = nullptr;

    ~ProfThreadOwner()
    {
        if (state != nullptr)
            unregisterProfThread(state);
    }
};

thread_local ProfThreadOwner t_profOwner;

// ---- folded-stack rendering -------------------------------------------

void
appendFrameName(std::string& out, uint64_t frame)
{
    char buf[48];
    auto func = uint32_t(frame & 0xFFFFFFFFu);
    auto tier = uint8_t(frame >> 32);
    std::snprintf(buf, sizeof(buf), "f%u@%s", func, profTierName(tier));
    out += buf;
}

void
foldRingLocked(ProfThreadState& state,
               std::unordered_map<std::string, uint64_t>& out)
{
    // Quiesce the owning thread's SIGPROF handler before reading the
    // non-atomic ring entries or resetting the cursors: raise the fold
    // flag, then drain in-flight ring writers (the handler's ring
    // section is a bounded copy, so this spin is nanosecond-scale).
    // Seq_cst on both sides guarantees a handler either sees the flag
    // and skips the ring, or is seen here and waited out. Safe when the
    // owning thread calls this on itself (unregisterProfThread blocks
    // SIGPROF first, so no handler can be in flight).
    state.ringFolding.store(true, std::memory_order_seq_cst);
    while (state.ringWriters.load(std::memory_order_seq_cst) != 0) {
        // spin; the holder is a signal handler on another thread
    }
    uint64_t recorded =
        state.ringRecorded.load(std::memory_order_relaxed);
    uint64_t count = std::min<uint64_t>(recorded, kStackRing);
    uint32_t next = state.ringNext.load(std::memory_order_relaxed);
    uint32_t start =
        recorded > kStackRing ? next : 0; // oldest-first when wrapped
    std::string line;
    for (uint64_t i = 0; i < count; i++) {
        const StackSample& sample =
            state.ring[(start + i) % kStackRing];
        line.clear();
        // frames[] is leaf-first; folded format is root-first.
        int depth = std::min<int>(sample.depth, kMaxStackDepth);
        for (int d = depth - 1; d >= 0; d--) {
            appendFrameName(line, sample.frames[size_t(d)]);
            if (d > 0)
                line += ';';
        }
        // A declared category that the frames do not already encode gets
        // a synthetic leaf frame (bounds-check samples symbolize through
        // the code map and keep their function leaf).
        auto cat = ProfCategory(sample.category);
        if (cat != ProfCategory::interp && cat != ProfCategory::jit_body) {
            if (!line.empty())
                line += ';';
            line += profCategoryName(int(cat));
        }
        if (line.empty())
            line = profCategoryName(int(ProfCategory::other));
        out[line]++;
    }
    state.ringRecorded.store(0, std::memory_order_relaxed);
    state.ringNext.store(0, std::memory_order_relaxed);
    state.ringFolding.store(false, std::memory_order_release);
}

} // namespace

bool
profEnabledSlow()
{
    profInit();
    return g_profState.load(std::memory_order_relaxed) == 2;
}

ProfThreadState*
registerProfThread()
{
    if (t_profState != nullptr)
        return t_profState;
    profInit();
    auto* state = new ProfThreadState();
    state->tid = profTid();
    {
        ProfCollector& c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        c.states.push_back(state);
    }
    // Publish before arming: the first tick must find the state.
    t_profState = state;
    t_profOwner.state = state;
    armTimer(state, g_profHz.load(std::memory_order_relaxed));
    return state;
}

ProfThreadState*
pushProfFrame(ProfFrame* frame, uint32_t func_idx, uint8_t tier)
{
    ProfThreadState* state = registerProfThread();
    frame->funcIdx = func_idx;
    frame->tier = tier;
    frame->prev = state->topFrame.load(std::memory_order_relaxed);
    frame->prevCategory =
        state->category.load(std::memory_order_relaxed);
    // Release so the frame's fields are ordered before publication even
    // under compiler reordering (the reader is this thread's handler).
    state->topFrame.store(frame, std::memory_order_release);
    state->category.store(uint8_t(ProfCategory::interp),
                          std::memory_order_relaxed);
    return state;
}

void
popProfFrame(ProfThreadState* state, ProfFrame* frame)
{
    state->topFrame.store(frame->prev, std::memory_order_relaxed);
    state->category.store(frame->prevCategory,
                          std::memory_order_relaxed);
}

ProfThreadState*
setProfCategory(uint8_t category, uint8_t* prev)
{
    ProfThreadState* state = registerProfThread();
    *prev = state->category.load(std::memory_order_relaxed);
    state->category.store(category, std::memory_order_relaxed);
    return state;
}

void
restoreProfCategory(ProfThreadState* state, uint8_t prev)
{
    state->category.store(prev, std::memory_order_relaxed);
}

} // namespace detail

namespace prof {

void
currentMark(void** top, uint8_t* category)
{
    detail::ProfThreadState* s = detail::t_profState;
    *top = s != nullptr ? s->topFrame.load(std::memory_order_relaxed)
                        : nullptr;
    *category =
        s != nullptr ? s->category.load(std::memory_order_relaxed) : 0;
}

void
restoreMark(void* top, uint8_t category)
{
    detail::ProfThreadState* s = detail::t_profState;
    if (s == nullptr)
        return;
    s->topFrame.store(static_cast<detail::ProfFrame*>(top),
                      std::memory_order_relaxed);
    s->category.store(category, std::memory_order_relaxed);
}

} // namespace prof

int
profilerHz()
{
    detail::profInit();
    return detail::g_profHz.load(std::memory_order_relaxed);
}

bool
profilerEnabled()
{
    return detail::profActive();
}

void
setProfilerHzForTesting(int hz)
{
    detail::profInit();
    if (hz > 0)
        detail::ensureSamplerInstalled();
    detail::g_profHz.store(hz, std::memory_order_relaxed);
    detail::g_profState.store(hz > 0 ? 2 : 1,
                              std::memory_order_relaxed);
    detail::ProfCollector& c = detail::collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    for (detail::ProfThreadState* state : c.states)
        detail::armTimer(state, hz);
}

ProfileSnapshot
snapshotProfile()
{
    detail::profInit();
    detail::ProfCollector& c = detail::collector();
    ProfileSnapshot snap;
    detail::FuncMap funcs;
    std::lock_guard<std::mutex> lock(c.mutex);
    snap.samples = c.retiredSamples;
    for (int i = 0; i < kNumProfCategories; i++)
        snap.categories[i] = c.retiredCategories[i];
    funcs = c.retiredFuncs;
    for (detail::ProfThreadState* state : c.states) {
        snap.samples += state->samples.load(std::memory_order_relaxed);
        for (int i = 0; i < kNumProfCategories; i++)
            snap.categories[i] +=
                state->categories[i].load(std::memory_order_relaxed);
        for (auto& slot : state->funcs) {
            uint64_t key = slot.key.load(std::memory_order_relaxed);
            if (key == 0)
                continue;
            auto& acc = funcs[key];
            acc.first += slot.count.load(std::memory_order_relaxed);
            acc.second += slot.bounds.load(std::memory_order_relaxed);
        }
    }
    snap.funcs.reserve(funcs.size());
    for (const auto& [key, counts] : funcs) {
        ProfileSnapshot::FuncSample f;
        f.funcIdx = uint32_t(key & 0xFFFFFFFFu);
        f.tier = uint8_t((key >> 32) & 0xFF);
        f.samples = counts.first;
        f.boundsSamples = counts.second;
        snap.funcs.push_back(f);
    }
    std::sort(snap.funcs.begin(), snap.funcs.end(),
              [](const ProfileSnapshot::FuncSample& a,
                 const ProfileSnapshot::FuncSample& b) {
                  return a.samples > b.samples;
              });
    return snap;
}

ProfileSnapshot
profileDelta(const ProfileSnapshot& before, const ProfileSnapshot& after)
{
    ProfileSnapshot delta;
    auto sub = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
    delta.samples = sub(after.samples, before.samples);
    for (int i = 0; i < kNumProfCategories; i++)
        delta.categories[i] =
            sub(after.categories[i], before.categories[i]);
    detail::FuncMap prior;
    for (const auto& f : before.funcs)
        prior[detail::funcKey(f.funcIdx, f.tier)] = {f.samples,
                                                     f.boundsSamples};
    for (const auto& f : after.funcs) {
        auto it = prior.find(detail::funcKey(f.funcIdx, f.tier));
        uint64_t base = it != prior.end() ? it->second.first : 0;
        uint64_t base_bounds =
            it != prior.end() ? it->second.second : 0;
        ProfileSnapshot::FuncSample d = f;
        d.samples = sub(f.samples, base);
        d.boundsSamples = sub(f.boundsSamples, base_bounds);
        if (d.samples > 0 || d.boundsSamples > 0)
            delta.funcs.push_back(d);
    }
    std::sort(delta.funcs.begin(), delta.funcs.end(),
              [](const ProfileSnapshot::FuncSample& a,
                 const ProfileSnapshot::FuncSample& b) {
                  return a.samples > b.samples;
              });
    return delta;
}

std::vector<std::pair<std::string, uint64_t>>
collectFoldedStacks()
{
    detail::profInit();
    detail::ProfCollector& c = detail::collector();
    std::unordered_map<std::string, uint64_t> folded;
    {
        std::lock_guard<std::mutex> lock(c.mutex);
        folded.swap(c.retiredFolded);
        for (detail::ProfThreadState* state : c.states)
            detail::foldRingLocked(*state, folded);
    }
    std::vector<std::pair<std::string, uint64_t>> out(folded.begin(),
                                                      folded.end());
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
        return a.second != b.second ? a.second > b.second
                                    : a.first < b.first;
    });
    return out;
}

bool
writeFoldedStacks(const std::string& path)
{
    std::vector<std::pair<std::string, uint64_t>> lines =
        collectFoldedStacks();
    std::ofstream file(path, std::ios::trunc);
    if (!file.is_open()) {
        LNB_WARN("prof: cannot open folded output %s", path.c_str());
        return false;
    }
    for (const auto& [stack, count] : lines)
        file << stack << ' ' << count << '\n';
    file.flush();
    return file.good();
}

const std::string&
profFoldedPath()
{
    detail::profInit();
    return detail::collector().foldedPath;
}

} // namespace lnb::obs
