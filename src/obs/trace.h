/**
 * @file
 * Scoped trace events over per-thread bounded ring buffers, exported as
 * Chrome trace_event JSON (loadable in Perfetto / chrome://tracing).
 *
 * Usage on a code path worth a span:
 *
 *   void Engine::compile(...) {
 *       LNB_TRACE_SCOPE("rt.compile");
 *       ...
 *   }
 *
 * Collection is off unless LNB_TRACE_FILE names an output path (read
 * once at startup) or a test forces it with setTraceEnabledForTesting.
 * When off, a scope costs one predictable branch. Each thread owns a
 * bounded ring of kTraceRingCapacity events; overflow overwrites the
 * oldest events (tracing never blocks or allocates on the hot path once
 * the ring exists).
 */
#ifndef LNB_OBS_TRACE_H
#define LNB_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "support/clock.h"

namespace lnb::obs {

/** Events one thread can hold before the ring wraps. */
constexpr size_t kTraceRingCapacity = 4096;

/** Event flavors, mapping to Chrome trace_event phases. */
enum class TraceKind : uint8_t
{
    span = 0,  ///< complete event (ph "X")
    instant,   ///< instant event (ph "i", thread scope)
    asyncSpan, ///< async begin/end pair (ph "b"/"e", keyed by asyncId)
};

/** One completed span, as drained from the rings. */
struct TraceEvent
{
    const char* name = ""; ///< string literal supplied to the scope
    uint64_t startNanos = 0;
    uint64_t durationNanos = 0;
    /** Correlation id for asyncSpan events (e.g. the svc request span id
     * minted at admission); 0 otherwise. */
    uint64_t asyncId = 0;
    uint32_t tid = 0;
    TraceKind kind = TraceKind::span;
};

namespace detail {

/** One-time env reads + atexit(flushObservability) registration. */
void ensureObsInit();

bool traceEnabledSlow();

/** Cached tri-state: 0 unknown, 1 off, 2 on (overridable by tests). */
extern std::atomic<int> g_traceState;

inline bool
traceActive()
{
    int state = g_traceState.load(std::memory_order_relaxed);
    if (state == 0)
        return traceEnabledSlow();
    return state == 2;
}

void recordTraceEvent(const char* name, uint64_t start_ns,
                      uint64_t dur_ns);

} // namespace detail

/**
 * Record an instant event at now (ph "i"). @p name must be a string
 * literal. No-op when tracing is off. NOT async-signal-safe (the
 * per-thread ring is lazily constructed); call from normal context only.
 */
void recordInstantEvent(const char* name);

/**
 * Record one leg of an async span (ph "b"/"e" pair keyed by @p async_id
 * across threads). Emitted retrospectively: the caller supplies the
 * measured [start_ns, start_ns + dur_ns) window.
 */
void recordAsyncSpan(const char* name, uint64_t async_id,
                     uint64_t start_ns, uint64_t dur_ns);

/** RAII span: records [construction, destruction) under @p name.
 * @p name must be a string literal (stored by pointer). */
class TraceScope
{
  public:
    explicit TraceScope(const char* name)
    {
        if (detail::traceActive()) {
            name_ = name;
            start_ = monotonicNanos();
        }
    }

    ~TraceScope()
    {
        if (name_ != nullptr)
            detail::recordTraceEvent(name_, start_,
                                     monotonicNanos() - start_);
    }

    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

  private:
    const char* name_ = nullptr;
    uint64_t start_ = 0;
};

/** Force tracing on/off regardless of LNB_TRACE_FILE (tests). */
void setTraceEnabledForTesting(bool enabled);

/**
 * Move all buffered events (live rings + exited threads) out of the
 * collector. Ordering across threads is by start time only.
 */
std::vector<TraceEvent> drainTraceEvents();

/**
 * Write all buffered events as a Chrome trace_event JSON object to
 * @p path (drains the buffers). Returns false and logs on I/O failure.
 */
bool writeChromeTrace(const std::string& path);

/** Path from LNB_TRACE_FILE, or empty (read once). */
const std::string& traceFilePath();

/**
 * Flush observability artifacts now: the Chrome trace to LNB_TRACE_FILE
 * (if set) and a process-wide metrics dump into LNB_JSON_DIR (if set).
 * Registered via atexit on first obs use; safe to call repeatedly.
 */
void flushObservability();

} // namespace lnb::obs

/** Token-pasting helpers so multiple scopes can share a line/function. */
#define LNB_OBS_CONCAT2(a, b) a##b
#define LNB_OBS_CONCAT(a, b) LNB_OBS_CONCAT2(a, b)

#define LNB_TRACE_SCOPE(name) \
    ::lnb::obs::TraceScope LNB_OBS_CONCAT(lnb_trace_scope_, \
                                          __LINE__)(name)

#endif // LNB_OBS_TRACE_H
