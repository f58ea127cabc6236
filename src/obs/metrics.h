/**
 * @file
 * Lock-free runtime metrics: named monotonic counters and fixed-bucket
 * latency histograms, shared by every layer of the stack (mem, jit,
 * interp, runtime, simkernel, harness).
 *
 * Design (paper-adjacent: eWAPA/Wasabi-style always-on probes must not
 * perturb the quantity under measurement):
 *
 *  - Writes go to a per-thread shard (cache-line aligned, relaxed
 *    atomics), so the hot path is one relaxed fetch_add on memory no
 *    other writer touches — ~1 ns, no contention, no fences.
 *  - Shards are claimed from a fixed slot table with a CAS (no locks);
 *    a thread that cannot claim a slot falls back to a global shard.
 *  - Reads (snapshot/value) aggregate across all live shards plus the
 *    counts folded in by exited threads. Reads are weakly consistent
 *    while writers run; exact once writer threads have joined.
 *  - Signal handlers must not touch shard claiming (it may allocate TLS
 *    cleanup records); they use registerExternalCounter() to expose a
 *    plain global atomic they already own.
 */
#ifndef LNB_OBS_METRICS_H
#define LNB_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "support/clock.h"

namespace lnb::obs {

/** Aggregated value of one counter at snapshot time. */
struct CounterValue
{
    const char* name = "";
    uint64_t value = 0;
};

/** Aggregated state of one histogram at snapshot time. */
struct HistogramSnapshot
{
    static constexpr int kBuckets = 64;

    const char* name = "";
    /** counts[i] holds samples with bit_width(value) == i, i.e. bucket i
     * covers [2^(i-1), 2^i) for i >= 1 and {0} for i == 0. */
    uint64_t counts[kBuckets] = {};
    uint64_t totalCount = 0;
    uint64_t sum = 0;

    double mean() const;
    /** p in [0,100]; log-interpolated within the winning bucket. */
    double percentile(double p) const;
};

/** Everything the registry knows, aggregated. */
struct MetricsSnapshot
{
    std::vector<CounterValue> counters;
    std::vector<HistogramSnapshot> histograms;

    /** Value of a named counter; 0 if absent. */
    uint64_t counter(const std::string& name) const;
    /** Snapshot of a named histogram; null if absent. */
    const HistogramSnapshot* histogram(const std::string& name) const;
};

namespace detail {

constexpr int kMaxCounters = 96;
constexpr int kMaxHistograms = 24;
constexpr int kHistBuckets = HistogramSnapshot::kBuckets;

/** Per-thread metric storage. Cache-line aligned so one thread's writes
 * never share a line with another shard. */
struct alignas(64) ThreadShard
{
    std::atomic<uint64_t> counters[kMaxCounters];
    std::atomic<uint64_t> histBuckets[kMaxHistograms][kHistBuckets];
    std::atomic<uint64_t> histSums[kMaxHistograms];
};

/** This thread's shard, or null before the first metric write.
 * constinit: without it, GCC reads the variable through a weak TLS-init
 * wrapper reference that UBSan reports as a null load. */
extern constinit thread_local ThreadShard* t_shard;

/** Claim (or fall back to the global) shard; out-of-line slow path. */
ThreadShard* claimShard();

/**
 * Construct the registry singleton now. ensureObsInit() calls this
 * before registering atexit(flushObservability), so destructor ordering
 * guarantees the exit-time flush always sees a live registry.
 */
void ensureRegistryAlive();

inline ThreadShard*
shard()
{
    ThreadShard* s = t_shard;
    return s != nullptr ? s : claimShard();
}

inline int
bucketFor(uint64_t value)
{
    // bit_width(value): 0 -> 0, 1 -> 1, [2,4) -> 2, ... capped at 63.
    return value == 0 ? 0 : 64 - __builtin_clzll(value);
}

} // namespace detail

/**
 * Handle to a named monotonic counter. Cheap to copy; obtain once (e.g. a
 * function-local static) and call add() on the hot path.
 */
class Counter
{
  public:
    Counter() = default;

    void
    add(uint64_t n = 1) const
    {
        detail::shard()->counters[id_].fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Aggregate value across all threads (weakly consistent). */
    uint64_t value() const;

    const char* name() const;

  private:
    friend Counter registerCounter(const char* name);
    explicit Counter(uint16_t id) : id_(id) {}
    uint16_t id_ = 0;
};

/**
 * Handle to a named fixed-bucket histogram (power-of-two buckets; values
 * are typically nanoseconds).
 */
class Histogram
{
  public:
    Histogram() = default;

    void
    record(uint64_t value) const
    {
        detail::ThreadShard* s = detail::shard();
        s->histBuckets[id_][detail::bucketFor(value)].fetch_add(
            1, std::memory_order_relaxed);
        s->histSums[id_].fetch_add(value, std::memory_order_relaxed);
    }

    /** Aggregate snapshot across all threads (weakly consistent). */
    HistogramSnapshot snapshot() const;

    const char* name() const;

  private:
    friend Histogram registerHistogram(const char* name);
    explicit Histogram(uint16_t id) : id_(id) {}
    uint16_t id_ = 0;
};

/**
 * Register (or look up) a counter/histogram by name. @p name must be a
 * string literal or otherwise outlive the process. Idempotent: the same
 * name always yields the same handle. Thread-safe but not
 * async-signal-safe; register before any signal can fire.
 */
Counter registerCounter(const char* name);
Histogram registerHistogram(const char* name);

/**
 * Expose a caller-owned atomic as a read-only counter. For code that
 * increments from async-signal context (mem/signals.cc): the handler
 * keeps using its own global atomic and the registry merely reads it at
 * snapshot time. @p source must outlive the process.
 */
void registerExternalCounter(const char* name,
                             const std::atomic<uint64_t>* source);

/** Aggregate everything. Weakly consistent while writers are running. */
MetricsSnapshot snapshotMetrics();

/** Serialize a snapshot as a JSON object (schema lnb.metrics.v1). */
std::string metricsToJson(const MetricsSnapshot& snapshot);

/**
 * Serialize a snapshot in Prometheus text exposition format (v0.0.4):
 * counters as `lnb_<name> value`, histograms as cumulative `_bucket`
 * series with power-of-two `le` bounds plus `_sum`/`_count`. Metric
 * names are sanitized (dots become underscores) and prefixed `lnb_`.
 */
std::string metricsToPrometheus(const MetricsSnapshot& snapshot);

/**
 * Scoped latency probe: records monotonic elapsed nanoseconds into a
 * histogram on destruction.
 */
class ScopedLatency
{
  public:
    explicit ScopedLatency(Histogram hist)
        : hist_(hist), start_(monotonicNanos())
    {}
    ~ScopedLatency() { hist_.record(monotonicNanos() - start_); }

    ScopedLatency(const ScopedLatency&) = delete;
    ScopedLatency& operator=(const ScopedLatency&) = delete;

  private:
    Histogram hist_;
    uint64_t start_;
};

} // namespace lnb::obs

#endif // LNB_OBS_METRICS_H
