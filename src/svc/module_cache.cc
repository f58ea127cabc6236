#include "svc/module_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lnb::svc {

namespace {

struct CacheMetrics
{
    obs::Counter hits = obs::registerCounter("svc.cache_hits");
    obs::Counter misses = obs::registerCounter("svc.cache_misses");
    obs::Counter evictions = obs::registerCounter("svc.cache_evictions");
    obs::Counter inflightWaits = obs::registerCounter(
        "svc.cache_inflight_waits");
    obs::Histogram lookupLatency = obs::registerHistogram(
        "svc.cache_lookup_ns");
    /** Disk tier (LNB_CODE_CACHE_DIR): in-memory misses served from a
     * persisted artifact, misses that compiled, and files rejected as
     * corrupt/truncated/stale. */
    obs::Counter persistHits = obs::registerCounter(
        "svc.cache_persist_hits");
    obs::Counter persistMisses = obs::registerCounter(
        "svc.cache_persist_misses");
    obs::Counter persistRejects = obs::registerCounter(
        "svc.cache_persist_rejects");
    obs::Histogram loadLatency = obs::registerHistogram(
        "svc.cache_load_ns");
};

CacheMetrics&
cacheMetrics()
{
    static CacheMetrics m;
    return m;
}

/** On-disk cache file: header + serializeCompiledModule payload. */
struct CacheFileHeader
{
    uint32_t magic = 0;
    uint32_t formatVersion = 0;
    /** Build identity of the writing binary: the serialized form is a
     * trusted internal dump, so artifacts never cross builds. */
    uint64_t buildId = 0;
    /** Fingerprint of the fully RESOLVED EngineConfig (env knobs
     * folded in) — a process with different LNB_* settings must not
     * accept this artifact. */
    uint64_t configHash = 0;
    uint64_t bytesHash = 0;
    uint64_t payloadLen = 0;
    uint64_t payloadHash = 0;
};
static_assert(sizeof(CacheFileHeader) == 48);

constexpr uint32_t kCacheMagic = 0x43424e4c; // "LNBC"
/** Bumped whenever the artifact's bytes change meaning: 5 = shortest
 * x86 encodings and InstanceContext's hot prefix (JIT code bytes and the
 * context offsets baked into them); 6 = the hoisted-check pseudo-op left
 * the lowered IR (count_fallback and every register-form opcode moved
 * down by one) and the two interprocedural-summary rows left the
 * serialized EngineConfig; 7 = the epoch poll became one load from the
 * poll page below the context, and interrupt islands and their glue
 * symbol left the code; 8 = the stackChecks row left the serialized
 * EngineConfig; 9 = each lowered function carries its memory-base pin
 * flag, and optimizing-JIT code addresses memory off a pinned base. */
constexpr uint32_t kCacheFormatVersion = 9;

uint64_t
cacheBuildId()
{
    static const uint64_t id = [] {
        const char stamp[] = __DATE__ "T" __TIME__;
        return contentHash64(stamp, sizeof stamp - 1);
    }();
    return id;
}

/** mkdir -p, best effort: persistence is an optimization, never fatal. */
void
makeDirs(const std::string& path)
{
    for (size_t i = 1; i <= path.size(); i++) {
        if (i == path.size() || path[i] == '/') {
            std::string prefix = path.substr(0, i);
            if (!prefix.empty())
                mkdir(prefix.c_str(), 0755);
        }
    }
}

bool
writeAll(int fd, const void* data, size_t len)
{
    const auto* p = static_cast<const uint8_t*>(data);
    while (len != 0) {
        ssize_t n = write(fd, p, len);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        p += size_t(n);
        len -= size_t(n);
    }
    return true;
}

} // namespace

uint64_t
contentHash64(const void* data, size_t len, uint64_t seed)
{
    constexpr uint64_t kPrime = 0x100000001b3ull; // FNV-1a prime
    const auto* bytes = static_cast<const uint8_t*>(data);
    uint64_t hash = seed;
    // 8-byte lanes: h' = (h ^ lane) * prime is invertible in h (the
    // prime is odd), so no lane's contribution can be masked by later
    // rounds; corruption anywhere always flips the result.
    while (len >= 8) {
        uint64_t lane;
        std::memcpy(&lane, bytes, sizeof lane);
        hash = (hash ^ lane) * kPrime;
        bytes += 8;
        len -= 8;
    }
    for (size_t i = 0; i < len; i++)
        hash = (hash ^ bytes[i]) * kPrime;
    // Multiplication only carries entropy upward; avalanche it back
    // down so truncated uses (file names, bucket folds) see every
    // input position.
    hash ^= hash >> 33;
    hash *= 0xff51afd7ed558ccdull;
    hash ^= hash >> 29;
    return hash;
}

uint64_t
engineConfigFingerprint(const rt::EngineConfig& config)
{
    // The serialized form has one entry per config table row, so every
    // field, present and future, distinguishes the key.
    wasm::ByteWriter w;
    rt::writeEngineConfig(config, w);
    return contentHash64(w.bytes().data(), w.bytes().size());
}

ModuleCache::ModuleCache(size_t capacity, const char* persist_dir)
    : capacity_(capacity < 1 ? 1 : capacity)
{
    if (persist_dir == nullptr)
        persist_dir = std::getenv("LNB_CODE_CACHE_DIR");
    if (persist_dir != nullptr && persist_dir[0] != '\0') {
        persistDir_ = persist_dir;
        makeDirs(persistDir_);
    }
}

std::string
ModuleCache::persistPath(const ModuleKey& key) const
{
    char name[64];
    std::snprintf(name, sizeof name, "/%016llx-%016llx.lnbc",
                  static_cast<unsigned long long>(key.bytesHash),
                  static_cast<unsigned long long>(key.configHash));
    return persistDir_ + name;
}

ModuleCache::PersistOutcome
ModuleCache::tryLoadPersisted(
    const ModuleKey& key,
    std::shared_ptr<const rt::CompiledModule>& out) const
{
    LNB_TRACE_SCOPE("svc.cache_load");
    obs::ScopedLatency latency(cacheMetrics().loadLatency);
    std::string path = persistPath(key);
    int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return PersistOutcome::miss;
    struct stat st;
    if (fstat(fd, &st) != 0 || st.st_size < off_t(sizeof(CacheFileHeader))) {
        close(fd);
        return PersistOutcome::reject;
    }
    std::vector<uint8_t> file(size_t(st.st_size));
    size_t got = 0;
    while (got < file.size()) {
        ssize_t n = read(fd, file.data() + got, file.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += size_t(n);
    }
    close(fd);
    if (got != file.size())
        return PersistOutcome::reject;

    CacheFileHeader hdr;
    std::memcpy(&hdr, file.data(), sizeof hdr);
    const uint8_t* payload = file.data() + sizeof hdr;
    size_t payload_len = file.size() - sizeof hdr;
    // Staleness / integrity gauntlet: any mismatch means "pretend the
    // file is not there" — the caller recompiles and overwrites it.
    if (hdr.magic != kCacheMagic ||
        hdr.formatVersion != kCacheFormatVersion ||
        hdr.buildId != cacheBuildId() ||
        hdr.configHash != key.configHash ||
        hdr.bytesHash != key.bytesHash ||
        hdr.payloadLen != payload_len ||
        hdr.payloadHash != contentHash64(payload, payload_len)) {
        return PersistOutcome::reject;
    }
    auto loaded = rt::deserializeCompiledModule(payload, payload_len);
    if (!loaded.isOk())
        return PersistOutcome::reject;
    out = loaded.takeValue();
    return PersistOutcome::loaded;
}

void
ModuleCache::persist(const ModuleKey& key, const rt::CompiledModule& cm) const
{
    std::vector<uint8_t> payload = rt::serializeCompiledModule(cm);
    CacheFileHeader hdr;
    hdr.magic = kCacheMagic;
    hdr.formatVersion = kCacheFormatVersion;
    hdr.buildId = cacheBuildId();
    hdr.configHash = key.configHash;
    hdr.bytesHash = key.bytesHash;
    hdr.payloadLen = payload.size();
    hdr.payloadHash = contentHash64(payload.data(), payload.size());

    // Write-then-rename: readers only ever see a complete file or none.
    // The in-flight marker serializes same-key writers within a process;
    // the pid suffix keeps concurrent processes off each other's temp.
    std::string tmp = persistPath(key) + ".tmp." + std::to_string(getpid());
    int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
    if (fd < 0)
        return;
    bool ok = writeAll(fd, &hdr, sizeof hdr) &&
              writeAll(fd, payload.data(), payload.size());
    close(fd);
    if (!ok || rename(tmp.c_str(), persistPath(key).c_str()) != 0)
        unlink(tmp.c_str());
}

void
ModuleCache::touchLocked(Entry& entry, const ModuleKey& key)
{
    lru_.erase(entry.lruIt);
    lru_.push_front(key);
    entry.lruIt = lru_.begin();
}

void
ModuleCache::evictLocked()
{
    while (lru_.size() > capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
        stats_.evictions++;
        cacheMetrics().evictions.add();
        obs::recordInstantEvent("svc.cache_evict");
    }
}

Result<std::shared_ptr<const rt::CompiledModule>>
ModuleCache::getOrCompile(const std::vector<uint8_t>& bytes,
                          const rt::EngineConfig& config, bool* was_hit)
{
    obs::ScopedLatency latency(cacheMetrics().lookupLatency);
    // Fingerprint the RESOLVED config: the env knobs resolveEngineConfig
    // folds in (tier threshold, opt toggles, jit fallback...) change
    // codegen identity, and a second process running under different
    // LNB_* settings must not share this one's artifacts — in memory or
    // on disk.
    rt::EngineConfig resolved = rt::resolveEngineConfig(config);
    ModuleKey key{contentHash64(bytes.data(), bytes.size()),
                  engineConfigFingerprint(resolved)};

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        auto it = entries_.find(key);
        if (it == entries_.end())
            break;
        if (it->second.module != nullptr) {
            stats_.hits++;
            cacheMetrics().hits.add();
            obs::recordInstantEvent("svc.cache_hit");
            touchLocked(it->second, key);
            if (was_hit != nullptr)
                *was_hit = true;
            return it->second.module;
        }
        // Another thread is compiling this key; wait for it to publish
        // or give up, then re-examine.
        stats_.inflightWaits++;
        cacheMetrics().inflightWaits.add();
        inflightCv_.wait(lock);
    }

    // Miss: claim the key with an in-flight marker and compile outside
    // the lock so unrelated lookups proceed.
    stats_.misses++;
    cacheMetrics().misses.add();
    obs::recordInstantEvent("svc.cache_miss");
    if (was_hit != nullptr)
        *was_hit = false;
    entries_.emplace(key, Entry{});
    lock.unlock();

    // Disk tier first: a persisted artifact skips the whole
    // decode/validate/lower/opt/codegen pipeline (and emits no compile
    // trace scope — the cold-start check counts on that).
    std::shared_ptr<const rt::CompiledModule> module;
    if (!persistDir_.empty()) {
        PersistOutcome outcome = tryLoadPersisted(key, module);
        lock.lock();
        switch (outcome) {
          case PersistOutcome::loaded:
            stats_.persistHits++;
            cacheMetrics().persistHits.add();
            obs::recordInstantEvent("svc.cache_persist_hit");
            break;
          case PersistOutcome::miss:
            stats_.persistMisses++;
            cacheMetrics().persistMisses.add();
            break;
          case PersistOutcome::reject:
            stats_.persistRejects++;
            cacheMetrics().persistRejects.add();
            obs::recordInstantEvent("svc.cache_persist_reject");
            break;
        }
        lock.unlock();
    }

    if (module == nullptr) {
        rt::Engine engine(resolved);
        auto compiled = [&] {
            LNB_TRACE_SCOPE("svc.cache_compile");
            return engine.compileBytes(bytes);
        }();
        if (!compiled.isOk()) {
            // Leave no tombstone: the next request retries the compile.
            lock.lock();
            entries_.erase(key);
            inflightCv_.notify_all();
            return compiled.status();
        }
        module = compiled.takeValue();
        // Write-through (best effort) so the next process starts warm;
        // rejects overwrite the stale file here.
        if (!persistDir_.empty())
            persist(key, *module);
    }

    lock.lock();
    Entry& entry = entries_[key];
    entry.module = std::move(module);
    lru_.push_front(key);
    entry.lruIt = lru_.begin();
    stats_.entries = entries_.size();
    evictLocked();
    stats_.entries = entries_.size();
    inflightCv_.notify_all();
    return entry.module;
}

std::shared_ptr<const rt::CompiledModule>
ModuleCache::peek(const std::vector<uint8_t>& bytes,
                  const rt::EngineConfig& config) const
{
    ModuleKey key{contentHash64(bytes.data(), bytes.size()),
                  engineConfigFingerprint(rt::resolveEngineConfig(config))};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    return it != entries_.end() ? it->second.module : nullptr;
}

ModuleCacheStats
ModuleCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ModuleCacheStats out = stats_;
    out.entries = entries_.size();
    return out;
}

uint64_t
moduleCacheBuildId()
{
    return cacheBuildId();
}

} // namespace lnb::svc
