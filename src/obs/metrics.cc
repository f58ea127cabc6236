#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "obs/json.h"
#include "obs/trace.h"
#include "support/log.h"

namespace lnb::obs {

double
HistogramSnapshot::mean() const
{
    return totalCount != 0 ? double(sum) / double(totalCount) : 0.0;
}

double
HistogramSnapshot::percentile(double p) const
{
    if (totalCount == 0)
        return 0.0;
    if (p < 0)
        p = 0;
    if (p > 100)
        p = 100;
    // Rank of the requested sample (1-based), then walk the buckets.
    uint64_t rank = uint64_t(std::ceil(p / 100.0 * double(totalCount)));
    if (rank == 0)
        rank = 1;
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; i++) {
        if (counts[i] == 0)
            continue;
        if (seen + counts[i] >= rank) {
            // Bucket i covers [2^(i-1), 2^i); log-interpolate by the
            // fraction of the bucket's samples below the rank.
            if (i == 0)
                return 0.0;
            double lo = double(1ull << (i - 1));
            double hi = i >= 63 ? lo * 2 : double(1ull << i);
            double frac =
                double(rank - seen) / double(counts[i]);
            return lo * std::pow(hi / lo, frac);
        }
        seen += counts[i];
    }
    return mean();
}

uint64_t
MetricsSnapshot::counter(const std::string& name) const
{
    for (const CounterValue& c : counters) {
        if (name == c.name)
            return c.value;
    }
    return 0;
}

const HistogramSnapshot*
MetricsSnapshot::histogram(const std::string& name) const
{
    for (const HistogramSnapshot& h : histograms) {
        if (name == h.name)
            return &h;
    }
    return nullptr;
}

std::string
metricsToJson(const MetricsSnapshot& snapshot)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("lnb.metrics.v1");
    w.key("counters").beginObject();
    for (const CounterValue& c : snapshot.counters)
        w.key(c.name).value(c.value);
    w.endObject();
    w.key("histograms").beginObject();
    for (const HistogramSnapshot& h : snapshot.histograms) {
        w.key(h.name).beginObject();
        w.key("count").value(h.totalCount);
        w.key("sum").value(h.sum);
        w.key("mean").value(h.mean());
        w.key("p50").value(h.percentile(50));
        w.key("p90").value(h.percentile(90));
        w.key("p99").value(h.percentile(99));
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.take();
}

namespace {

/** "svc.request_ns" -> "lnb_svc_request_ns" (Prometheus name rules). */
std::string
promName(const char* name)
{
    std::string out = "lnb_";
    for (const char* p = name; *p != '\0'; p++) {
        char c = *p;
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

std::string
metricsToPrometheus(const MetricsSnapshot& snapshot)
{
    std::string out;
    out.reserve(4096);
    char buf[160];
    for (const CounterValue& c : snapshot.counters) {
        std::string name = promName(c.name);
        std::snprintf(buf, sizeof(buf), "# TYPE %s counter\n%s %llu\n",
                      name.c_str(), name.c_str(),
                      (unsigned long long)c.value);
        out += buf;
    }
    for (const HistogramSnapshot& h : snapshot.histograms) {
        std::string name = promName(h.name);
        std::snprintf(buf, sizeof(buf), "# TYPE %s histogram\n",
                      name.c_str());
        out += buf;
        // Power-of-two upper bounds, cumulative; emit only up to the
        // highest populated bucket (the rest is carried by +Inf).
        int top = -1;
        for (int i = 0; i < HistogramSnapshot::kBuckets; i++)
            if (h.counts[i] != 0)
                top = i;
        uint64_t cumulative = 0;
        for (int i = 0; i <= top; i++) {
            cumulative += h.counts[i];
            // Bucket i holds values with bit_width == i, i.e. < 2^i.
            double le = i >= 63 ? 9.223372036854776e18
                                : double(uint64_t(1) << i);
            std::snprintf(buf, sizeof(buf),
                          "%s_bucket{le=\"%.17g\"} %llu\n", name.c_str(),
                          le, (unsigned long long)cumulative);
            out += buf;
        }
        std::snprintf(buf, sizeof(buf),
                      "%s_bucket{le=\"+Inf\"} %llu\n%s_sum %llu\n"
                      "%s_count %llu\n",
                      name.c_str(), (unsigned long long)h.totalCount,
                      name.c_str(), (unsigned long long)h.sum,
                      name.c_str(), (unsigned long long)h.totalCount);
        out += buf;
    }
    return out;
}

namespace detail {

constinit thread_local ThreadShard* t_shard = nullptr;

namespace {

constexpr int kMaxThreadSlots = 256;

struct Registry
{
    std::mutex namesMutex;
    const char* counterNames[kMaxCounters] = {};
    int numCounters = 0;
    const char* histNames[kMaxHistograms] = {};
    int numHists = 0;

    struct External
    {
        const char* name;
        const std::atomic<uint64_t>* source;
    };
    std::vector<External> externals;

    /** Live per-thread shards (CAS-claimed; null = free slot). */
    std::atomic<ThreadShard*> slots[kMaxThreadSlots] = {};
    /** Counts folded in by exited threads, plus the fallback target for
     * threads that found every slot taken. */
    ThreadShard retired;
};

Registry&
registry()
{
    static Registry r;
    return r;
}

void
foldShard(const ThreadShard& from, ThreadShard& into)
{
    for (int c = 0; c < kMaxCounters; c++) {
        uint64_t v = from.counters[c].load(std::memory_order_relaxed);
        if (v != 0)
            into.counters[c].fetch_add(v, std::memory_order_relaxed);
    }
    for (int h = 0; h < kMaxHistograms; h++) {
        for (int b = 0; b < kHistBuckets; b++) {
            uint64_t v =
                from.histBuckets[h][b].load(std::memory_order_relaxed);
            if (v != 0)
                into.histBuckets[h][b].fetch_add(
                    v, std::memory_order_relaxed);
        }
        uint64_t s = from.histSums[h].load(std::memory_order_relaxed);
        if (s != 0)
            into.histSums[h].fetch_add(s, std::memory_order_relaxed);
    }
}

/** RAII owner of one thread's shard: claims a slot on construction,
 * folds the shard into the retired accumulator on thread exit. */
struct ShardOwner
{
    ThreadShard shard;
    int slot = -1;

    ShardOwner()
    {
        Registry& r = registry();
        for (int i = 0; i < kMaxThreadSlots; i++) {
            ThreadShard* expected = nullptr;
            if (r.slots[i].compare_exchange_strong(
                    expected, &shard, std::memory_order_acq_rel)) {
                slot = i;
                return;
            }
        }
        // Slot table full: this thread shares the retired shard.
    }

    ~ShardOwner()
    {
        Registry& r = registry();
        if (slot >= 0) {
            r.slots[slot].store(nullptr, std::memory_order_release);
            foldShard(shard, r.retired);
        }
    }
};

} // namespace

ThreadShard*
claimShard()
{
    static thread_local ShardOwner owner;
    t_shard = owner.slot >= 0 ? &owner.shard : &registry().retired;
    return t_shard;
}

void
ensureRegistryAlive()
{
    registry();
}

} // namespace detail

namespace {

using detail::Registry;

uint16_t
internName(const char* name, const char** table, int& count, int max,
           const char* what)
{
    detail::ensureObsInit();
    Registry& r = detail::registry();
    std::lock_guard<std::mutex> lock(r.namesMutex);
    for (int i = 0; i < count; i++) {
        if (std::strcmp(table[i], name) == 0)
            return uint16_t(i);
    }
    if (count >= max) {
        LNB_WARN("obs: %s table full, \"%s\" aliases slot 0", what, name);
        return 0;
    }
    table[count] = name;
    return uint16_t(count++);
}

} // namespace

Counter
registerCounter(const char* name)
{
    Registry& r = detail::registry();
    return Counter(internName(name, r.counterNames, r.numCounters,
                              detail::kMaxCounters, "counter"));
}

Histogram
registerHistogram(const char* name)
{
    Registry& r = detail::registry();
    return Histogram(internName(name, r.histNames, r.numHists,
                                detail::kMaxHistograms, "histogram"));
}

void
registerExternalCounter(const char* name,
                        const std::atomic<uint64_t>* source)
{
    detail::ensureObsInit();
    Registry& r = detail::registry();
    std::lock_guard<std::mutex> lock(r.namesMutex);
    for (const Registry::External& e : r.externals) {
        if (e.source == source)
            return; // idempotent re-registration
    }
    r.externals.push_back({name, source});
}

namespace {

uint64_t
aggregateCounter(uint16_t id)
{
    Registry& r = detail::registry();
    uint64_t total =
        r.retired.counters[id].load(std::memory_order_relaxed);
    for (const auto& slot : r.slots) {
        detail::ThreadShard* s = slot.load(std::memory_order_acquire);
        if (s != nullptr)
            total += s->counters[id].load(std::memory_order_relaxed);
    }
    return total;
}

HistogramSnapshot
aggregateHistogram(uint16_t id)
{
    Registry& r = detail::registry();
    HistogramSnapshot out;
    out.name = r.histNames[id];
    auto fold = [&](const detail::ThreadShard& s) {
        for (int b = 0; b < detail::kHistBuckets; b++) {
            uint64_t v =
                s.histBuckets[id][b].load(std::memory_order_relaxed);
            out.counts[b] += v;
            out.totalCount += v;
        }
        out.sum += s.histSums[id].load(std::memory_order_relaxed);
    };
    fold(r.retired);
    for (const auto& slot : r.slots) {
        detail::ThreadShard* s = slot.load(std::memory_order_acquire);
        if (s != nullptr)
            fold(*s);
    }
    return out;
}

} // namespace

uint64_t
Counter::value() const
{
    return aggregateCounter(id_);
}

const char*
Counter::name() const
{
    return detail::registry().counterNames[id_];
}

HistogramSnapshot
Histogram::snapshot() const
{
    return aggregateHistogram(id_);
}

const char*
Histogram::name() const
{
    return detail::registry().histNames[id_];
}

MetricsSnapshot
snapshotMetrics()
{
    Registry& r = detail::registry();
    int num_counters, num_hists;
    std::vector<Registry::External> externals;
    {
        std::lock_guard<std::mutex> lock(r.namesMutex);
        num_counters = r.numCounters;
        num_hists = r.numHists;
        externals = r.externals;
    }
    MetricsSnapshot snapshot;
    snapshot.counters.reserve(size_t(num_counters) + externals.size());
    for (int i = 0; i < num_counters; i++) {
        snapshot.counters.push_back(
            {r.counterNames[i], aggregateCounter(uint16_t(i))});
    }
    for (const Registry::External& e : externals) {
        snapshot.counters.push_back(
            {e.name, e.source->load(std::memory_order_relaxed)});
    }
    for (int i = 0; i < num_hists; i++)
        snapshot.histograms.push_back(aggregateHistogram(uint16_t(i)));
    return snapshot;
}

} // namespace lnb::obs
