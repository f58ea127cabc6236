/**
 * @file
 * Content-addressed compiled-module cache — the first tier of the
 * multi-tenant execution service (DESIGN.md §9).
 *
 * Key = (FNV-1a hash of the module bytes) × (exact EngineConfig
 * fingerprint). A CompiledModule is immutable and thread-shareable, so one
 * artifact (lowered IR, opt results, JIT code) serves every instance of
 * every tenant that submits the same bytes under the same config; a repeat
 * compile is one hash + one map lookup instead of the full
 * decode/validate/lower/opt/codegen pipeline.
 *
 * Concurrency: lookups and LRU maintenance hold one mutex; compilation of
 * a miss runs outside it under an in-flight marker, so concurrent requests
 * for the same key compile once (later arrivals wait on a condvar) while
 * requests for other keys proceed unblocked.
 */
#ifndef LNB_SVC_MODULE_CACHE_H
#define LNB_SVC_MODULE_CACHE_H

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/engine.h"

namespace lnb::svc {

/**
 * 64-bit content hash (content addressing for module bytes, payload
 * integrity for persisted artifacts). FNV-1a's xor-multiply round
 * applied to 8-byte lanes — each round is a bijection of the running
 * hash, so any single-lane change always changes the result — with a
 * final avalanche so all input positions diffuse into the low bits.
 * ~8x fewer multiply-chain rounds than byte-wise FNV-1a, which matters
 * on the cold-start path where megabytes of module and artifact bytes
 * are hashed per load.
 */
uint64_t contentHash64(const void* data, size_t len,
                       uint64_t seed = 0xcbf29ce484222325ull);

/** Hash of the serialized config (rt::writeEngineConfig), so it covers
 * every EngineConfig field. Distinct configs never share a cache entry. */
uint64_t engineConfigFingerprint(const rt::EngineConfig& config);

/** Build identity stamped into persisted cache files (tests use it to
 * forge same-build / cross-build headers). */
uint64_t moduleCacheBuildId();

/** Cache key: content hash × config fingerprint. */
struct ModuleKey
{
    uint64_t bytesHash = 0;
    uint64_t configHash = 0;

    bool operator==(const ModuleKey& other) const
    {
        return bytesHash == other.bytesHash &&
               configHash == other.configHash;
    }
};

struct ModuleKeyHasher
{
    size_t operator()(const ModuleKey& key) const
    {
        // The inputs are already well-mixed hashes; fold them.
        return size_t(key.bytesHash ^ (key.configHash * 0x9e3779b97f4a7c15ull));
    }
};

/** Point-in-time cache statistics. */
struct ModuleCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /** Requests that waited for another thread's in-flight compile. */
    uint64_t inflightWaits = 0;
    /** Disk tier (LNB_CODE_CACHE_DIR): in-memory misses served from a
     * persisted artifact / that fell through to a compile / that found a
     * file but rejected it as corrupt, truncated or stale. */
    uint64_t persistHits = 0;
    uint64_t persistMisses = 0;
    uint64_t persistRejects = 0;
    size_t entries = 0;
};

class ModuleCache
{
  public:
    /**
     * @p capacity is the maximum number of resident compiled modules;
     * least-recently-used entries are evicted beyond it.
     *
     * When @p persist_dir (default: the LNB_CODE_CACHE_DIR environment
     * variable; empty = disabled) names a directory, the cache adds a
     * persistent disk tier: every compiled artifact is serialized to
     * `<dir>/<bytesHash>-<configHash>.lnbc` (written to a temp file and
     * atomically renamed), and an in-memory miss first tries to
     * deserialize a persisted artifact before compiling — a warm second
     * process skips the decode/validate/lower/opt/codegen pipeline
     * entirely. Files are guarded by a versioned header (format version,
     * build id, full resolved-EngineConfig fingerprint, payload hash);
     * anything corrupt, truncated or stale is rejected, recompiled and
     * overwritten (DESIGN.md §14).
     */
    explicit ModuleCache(size_t capacity = 64,
                         const char* persist_dir = nullptr);

    ModuleCache(const ModuleCache&) = delete;
    ModuleCache& operator=(const ModuleCache&) = delete;

    /**
     * Return the cached CompiledModule for (bytes, config), compiling on
     * miss. @p was_hit (optional) reports whether the artifact came from
     * the cache. Compile failures are returned to every waiter and leave
     * no cache entry behind.
     */
    Result<std::shared_ptr<const rt::CompiledModule>>
    getOrCompile(const std::vector<uint8_t>& bytes,
                 const rt::EngineConfig& config, bool* was_hit = nullptr);

    /** Lookup without compiling; null on miss (does not wait on
     * in-flight compiles and does not touch LRU order). */
    std::shared_ptr<const rt::CompiledModule>
    peek(const std::vector<uint8_t>& bytes,
         const rt::EngineConfig& config) const;

    ModuleCacheStats stats() const;
    size_t capacity() const { return capacity_; }
    /** Directory of the disk tier; empty when persistence is disabled. */
    const std::string& persistDir() const { return persistDir_; }

  private:
    struct Entry
    {
        /** Null while a compile for this key is in flight. */
        std::shared_ptr<const rt::CompiledModule> module;
        /** Position in lru_ (valid only once module is non-null). */
        std::list<ModuleKey>::iterator lruIt;
    };

    enum class PersistOutcome { loaded, miss, reject };

    void touchLocked(Entry& entry, const ModuleKey& key);
    void evictLocked();
    std::string persistPath(const ModuleKey& key) const;
    /** Try the disk tier for @p key; called outside the lock while the
     * in-flight marker is held. */
    PersistOutcome
    tryLoadPersisted(const ModuleKey& key,
                     std::shared_ptr<const rt::CompiledModule>& out) const;
    /** Best-effort write-through of a fresh compile (temp + rename). */
    void persist(const ModuleKey& key, const rt::CompiledModule& cm) const;

    const size_t capacity_;
    std::string persistDir_;
    mutable std::mutex mutex_;
    std::condition_variable inflightCv_;
    std::unordered_map<ModuleKey, Entry, ModuleKeyHasher> entries_;
    /** Most-recently-used at the front; only completed entries listed. */
    std::list<ModuleKey> lru_;
    ModuleCacheStats stats_;
};

} // namespace lnb::svc

#endif // LNB_SVC_MODULE_CACHE_H
