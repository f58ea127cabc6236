#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "support/log.h"

#ifdef __linux__
#include <sys/syscall.h>
#endif

namespace lnb::obs {

namespace {

uint32_t
currentTid()
{
#ifdef __linux__
    static thread_local uint32_t tid = uint32_t(syscall(SYS_gettid));
    return tid;
#else
    static thread_local uint32_t tid = [] {
        static std::atomic<uint32_t> next{1};
        return next.fetch_add(1);
    }();
    return tid;
#endif
}

} // namespace

namespace detail {

std::atomic<int> g_traceState{0};

namespace {

/** Fixed-capacity per-thread event ring; overwrites the oldest.
 * Cursors are relaxed atomics so a drain racing the owning thread (or,
 * defensively, a write torn by a signal) can never observe a
 * half-updated size_t and index out of bounds; event payloads remain
 * weakly consistent as documented in recordTraceEvent. */
struct TraceRing
{
    TraceEvent events[kTraceRingCapacity];
    std::atomic<uint32_t> next{0};     ///< write cursor
    std::atomic<uint64_t> recorded{0}; ///< lifetime count
    uint32_t tid = 0;
};

struct TraceCollector
{
    std::mutex mutex;
    std::vector<TraceRing*> rings;        ///< live threads
    std::vector<TraceEvent> retired;      ///< events of exited threads
    std::string filePath;                 ///< from LNB_TRACE_FILE
};

TraceCollector&
collector()
{
    static TraceCollector c;
    return c;
}

void
drainRingLocked(TraceRing& ring, std::vector<TraceEvent>& out)
{
    uint64_t recorded = ring.recorded.load(std::memory_order_relaxed);
    uint32_t next = ring.next.load(std::memory_order_relaxed) %
                    uint32_t(kTraceRingCapacity);
    size_t count = size_t(
        std::min<uint64_t>(recorded, kTraceRingCapacity));
    // Oldest-first: when wrapped, the write cursor points at the oldest.
    size_t start = recorded > kTraceRingCapacity ? next : 0;
    for (size_t i = 0; i < count; i++)
        out.push_back(ring.events[(start + i) % kTraceRingCapacity]);
    ring.next.store(0, std::memory_order_relaxed);
    ring.recorded.store(0, std::memory_order_relaxed);
}

/** Owns one thread's ring; moves its events to `retired` on exit. */
struct RingOwner
{
    TraceRing* ring;

    RingOwner() : ring(new TraceRing())
    {
        ring->tid = currentTid();
        TraceCollector& c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        c.rings.push_back(ring);
    }

    ~RingOwner()
    {
        TraceCollector& c = collector();
        std::lock_guard<std::mutex> lock(c.mutex);
        drainRingLocked(*ring, c.retired);
        c.rings.erase(std::find(c.rings.begin(), c.rings.end(), ring));
        delete ring;
    }
};

TraceRing&
threadRing()
{
    static thread_local RingOwner owner;
    return *owner.ring;
}

std::once_flag g_initOnce;

} // namespace

void
ensureObsInit()
{
    std::call_once(g_initOnce, [] {
        // Both singletons must predate the atexit registration below, so
        // reverse destruction order keeps them alive during the flush.
        ensureRegistryAlive();
        const char* path = std::getenv("LNB_TRACE_FILE");
        if (path != nullptr && path[0] != '\0')
            collector().filePath = path;
        int state = collector().filePath.empty() ? 1 : 2;
        // Leave a testing override in place if one raced us here.
        int expected = 0;
        g_traceState.compare_exchange_strong(expected, state);
        std::atexit(flushObservability);
        // With tracing armed, construct this thread's ring now rather
        // than lazily at the first recorded event: zeroing the
        // multi-page ring costs tens of microseconds, which would
        // otherwise land inside whatever latency-sensitive window
        // happens to emit the thread's first span (the cold-start
        // module-load path is exactly such a window).
        if (g_traceState.load(std::memory_order_relaxed) == 2)
            threadRing();
    });
}

bool
traceEnabledSlow()
{
    ensureObsInit();
    return g_traceState.load(std::memory_order_relaxed) == 2;
}

/**
 * Reentrancy guard: ring writes lazily construct the thread's RingOwner
 * (heap allocation, collector mutex) and are therefore NOT
 * async-signal-safe. A signal-context caller that interrupted a ring
 * write in progress would deadlock or corrupt the allocator, so nested
 * entries are dropped on the floor. The SIGPROF sampler never writes
 * trace rings (it has its own pre-allocated buffers, obs/profiler.cc);
 * this guard is the backstop for anything else.
 */
thread_local bool t_inRingWrite = false;

void
recordEvent(const char* name, uint64_t start_ns, uint64_t dur_ns,
            uint64_t async_id, TraceKind kind)
{
    if (t_inRingWrite)
        return; // reentered from signal context; drop, never block
    t_inRingWrite = true;
    TraceRing& ring = threadRing();
    // The ring is only written by its owning thread; readers take the
    // collector mutex and accept torn in-flight events (drain happens
    // after workers quiesce in practice).
    uint32_t next = ring.next.load(std::memory_order_relaxed) %
                    uint32_t(kTraceRingCapacity);
    TraceEvent& event = ring.events[next];
    event.name = name;
    event.startNanos = start_ns;
    event.durationNanos = dur_ns;
    event.asyncId = async_id;
    event.tid = ring.tid;
    event.kind = kind;
    ring.next.store((next + 1) % uint32_t(kTraceRingCapacity),
                    std::memory_order_relaxed);
    ring.recorded.fetch_add(1, std::memory_order_relaxed);
    t_inRingWrite = false;
}

void
recordTraceEvent(const char* name, uint64_t start_ns, uint64_t dur_ns)
{
    recordEvent(name, start_ns, dur_ns, 0, TraceKind::span);
}

} // namespace detail

void
recordInstantEvent(const char* name)
{
    if (detail::traceActive())
        detail::recordEvent(name, monotonicNanos(), 0, 0,
                            TraceKind::instant);
}

void
recordAsyncSpan(const char* name, uint64_t async_id, uint64_t start_ns,
                uint64_t dur_ns)
{
    if (detail::traceActive())
        detail::recordEvent(name, start_ns, dur_ns, async_id,
                            TraceKind::asyncSpan);
}

void
setTraceEnabledForTesting(bool enabled)
{
    // Ensure env/atexit setup ran so a later reset keeps the file path.
    detail::ensureObsInit();
    detail::g_traceState.store(enabled ? 2 : 1,
                               std::memory_order_relaxed);
}

const std::string&
traceFilePath()
{
    detail::ensureObsInit();
    return detail::collector().filePath;
}

std::vector<TraceEvent>
drainTraceEvents()
{
    detail::TraceCollector& c = detail::collector();
    std::vector<TraceEvent> out;
    std::lock_guard<std::mutex> lock(c.mutex);
    out.swap(c.retired);
    for (detail::TraceRing* ring : c.rings)
        detail::drainRingLocked(*ring, out);
    std::sort(out.begin(), out.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  return a.startNanos < b.startNanos;
              });
    return out;
}

bool
writeChromeTrace(const std::string& path)
{
    std::vector<TraceEvent> events = drainTraceEvents();
    JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").beginArray();
    uint64_t pid = uint64_t(getpid());
    for (const TraceEvent& event : events) {
        double ts_us = double(event.startNanos) * 1e-3;
        double dur_us = double(event.durationNanos) * 1e-3;
        switch (event.kind) {
        case TraceKind::span:
            w.beginObject();
            w.key("name").value(event.name);
            w.key("cat").value("lnb");
            w.key("ph").value("X");
            w.key("pid").value(pid);
            w.key("tid").value(uint64_t(event.tid));
            w.key("ts").value(ts_us);
            w.key("dur").value(dur_us);
            w.endObject();
            break;
        case TraceKind::instant:
            w.beginObject();
            w.key("name").value(event.name);
            w.key("cat").value("lnb");
            w.key("ph").value("i");
            w.key("s").value("t"); // thread-scoped instant
            w.key("pid").value(pid);
            w.key("tid").value(uint64_t(event.tid));
            w.key("ts").value(ts_us);
            w.endObject();
            break;
        case TraceKind::asyncSpan:
            // Async begin/end pair correlated by id across threads
            // (Perfetto renders them as one nestable track per id).
            w.beginObject();
            w.key("name").value(event.name);
            w.key("cat").value("lnb.svc");
            w.key("ph").value("b");
            w.key("id").value(event.asyncId);
            w.key("pid").value(pid);
            w.key("tid").value(uint64_t(event.tid));
            w.key("ts").value(ts_us);
            w.endObject();
            w.beginObject();
            w.key("name").value(event.name);
            w.key("cat").value("lnb.svc");
            w.key("ph").value("e");
            w.key("id").value(event.asyncId);
            w.key("pid").value(pid);
            w.key("tid").value(uint64_t(event.tid));
            w.key("ts").value(ts_us + dur_us);
            w.endObject();
            break;
        }
    }
    w.endArray();
    w.endObject();

    std::ofstream file(path, std::ios::trunc);
    if (!file.is_open()) {
        LNB_WARN("obs: cannot open trace file %s", path.c_str());
        return false;
    }
    file << w.take();
    file.flush();
    if (!file.good()) {
        LNB_WARN("obs: short write to trace file %s", path.c_str());
        return false;
    }
    return true;
}

void
flushObservability()
{
    const std::string& trace_path = traceFilePath();
    if (!trace_path.empty())
        writeChromeTrace(trace_path);
    const std::string& folded_path = profFoldedPath();
    if (!folded_path.empty())
        writeFoldedStacks(folded_path);
    const char* json_dir = std::getenv("LNB_JSON_DIR");
    if (json_dir != nullptr && json_dir[0] != '\0') {
        std::string path = std::string(json_dir) + "/metrics_" +
                           std::to_string(getpid()) + ".json";
        std::ofstream file(path, std::ios::trunc);
        if (!file.is_open()) {
            LNB_WARN("obs: cannot open metrics dump %s", path.c_str());
            return;
        }
        file << metricsToJson(snapshotMetrics());
    }
}

} // namespace lnb::obs
