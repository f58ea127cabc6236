/**
 * @file
 * Tests for the multi-tenant execution service (src/svc): compiled-module
 * cache identity and eviction, instance-pool recycling (zeroed memory and
 * initial size after reset, under every bounds strategy), reject-not-block
 * admission control, and concurrent acquire/release.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "svc/instance_pool.h"
#include "svc/module_cache.h"
#include "svc/service.h"
#include "svc/stats_server.h"
#include "wasm/builder.h"
#include "wasm/encoder.h"

namespace lnb {
namespace {

using mem::BoundsStrategy;
using rt::CallOutcome;
using rt::EngineConfig;
using rt::EngineKind;
using wasm::Instr;
using wasm::Op;
using wasm::ValType;
using wasm::Value;

/**
 * The serving test module: initial 1 page (growable to 4), a data segment
 * at offset 8, a mutable global initialized to 7.
 *
 *   dirty(val) -> size : fill [64,1088) with val, grow one page, store
 *                        val into the grown page, set the global to 99
 *   probe(addr) -> u8  : load a byte
 *   size() -> pages    : memory.size
 *   g() -> i32         : the global's value
 */
wasm::Module
servingModule()
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 4);
    mb.addData(8, {1, 2, 3, 4});
    uint32_t g = mb.addGlobal(ValType::i32, true, Instr::constI32(7));

    auto& dirty = mb.addFunction(mb.addType({ValType::i32}, {ValType::i32}));
    dirty.i32Const(64);
    dirty.localGet(0);
    dirty.i32Const(1024);
    dirty.memoryFill();
    dirty.i32Const(1);
    dirty.memoryGrow();
    dirty.drop();
    dirty.i32Const(65536); // first byte of the grown page
    dirty.localGet(0);
    dirty.memOp(Op::i32_store8);
    dirty.i32Const(99);
    dirty.globalSet(g);
    dirty.memorySize();
    uint32_t dirty_idx = dirty.finish();
    mb.exportFunc("dirty", dirty_idx);

    auto& probe = mb.addFunction(mb.addType({ValType::i32}, {ValType::i32}));
    probe.localGet(0);
    probe.memOp(Op::i32_load8_u);
    mb.exportFunc("probe", probe.finish());

    auto& size = mb.addFunction(mb.addType({}, {ValType::i32}));
    size.memorySize();
    mb.exportFunc("size", size.finish());

    auto& get_g = mb.addFunction(mb.addType({}, {ValType::i32}));
    get_g.globalGet(g);
    mb.exportFunc("g", get_g.finish());

    return mb.build();
}

/** run() spins for @p iterations and returns the counter (keeps a service
 * worker busy for a controlled stretch). */
wasm::Module
spinModule(int32_t iterations)
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    auto& f = mb.addFunction(mb.addType({}, {ValType::i32}));
    uint32_t i = f.addLocal(ValType::i32);
    auto loop = f.loop();
    f.localGet(i);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localSet(i);
    f.localGet(i);
    f.i32Const(iterations);
    f.emit(Op::i32_lt_s);
    f.brIf(loop);
    f.end();
    f.localGet(i);
    mb.exportFunc("run", f.finish());
    return mb.build();
}

uint32_t
callI32(rt::Instance& instance, const char* name,
        std::vector<Value> args = {})
{
    CallOutcome out = instance.callExport(name, args);
    EXPECT_TRUE(out.ok()) << name << ": " << trapKindName(out.trap);
    return out.ok() ? out.results[0].i32 : 0xdeadbeef;
}

// ---------------------------------------------------------------- cache

TEST(ModuleCache, SameBytesAndConfigShareOneModule)
{
    svc::ModuleCache cache(4);
    std::vector<uint8_t> bytes = wasm::encodeModule(servingModule());
    EngineConfig config;

    bool hit = true;
    auto first = cache.getOrCompile(bytes, config, &hit);
    ASSERT_TRUE(first.isOk()) << first.status().toString();
    EXPECT_FALSE(hit);

    auto second = cache.getOrCompile(bytes, config, &hit);
    ASSERT_TRUE(second.isOk());
    EXPECT_TRUE(hit);
    EXPECT_EQ(first.value().get(), second.value().get());

    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ModuleCache, DistinctConfigOrBytesGetDistinctModules)
{
    svc::ModuleCache cache(8);
    std::vector<uint8_t> bytes = wasm::encodeModule(servingModule());

    EngineConfig mprotect_cfg;
    mprotect_cfg.strategy = BoundsStrategy::mprotect;
    EngineConfig trap_cfg = mprotect_cfg;
    trap_cfg.strategy = BoundsStrategy::trap;
    EngineConfig interp_cfg = mprotect_cfg;
    interp_cfg.kind = EngineKind::interp_threaded;
    EngineConfig nochecks_cfg = mprotect_cfg;
    nochecks_cfg.epochChecks = false;
    EngineConfig tiered_cfg = mprotect_cfg;
    tiered_cfg.tiered = true;
    EngineConfig threshold_cfg = tiered_cfg;
    threshold_cfg.tierThreshold = 128;

    auto a = cache.getOrCompile(bytes, mprotect_cfg);
    auto b = cache.getOrCompile(bytes, trap_cfg);
    auto c = cache.getOrCompile(bytes, interp_cfg);
    auto d = cache.getOrCompile(bytes, nochecks_cfg);
    std::vector<uint8_t> other = wasm::encodeModule(spinModule(10));
    auto e = cache.getOrCompile(other, mprotect_cfg);
    auto f = cache.getOrCompile(bytes, tiered_cfg);
    auto g = cache.getOrCompile(bytes, threshold_cfg);
    for (auto* r : {&a, &b, &c, &d, &e, &f, &g})
        ASSERT_TRUE(r->isOk());

    EXPECT_NE(a.value().get(), b.value().get());
    EXPECT_NE(a.value().get(), c.value().get());
    EXPECT_NE(a.value().get(), d.value().get());
    EXPECT_NE(a.value().get(), e.value().get());
    // Tiering is mutable shared state: a tiered module must not share a
    // cache entry with a fixed-tier one, nor with a different threshold.
    EXPECT_NE(a.value().get(), f.value().get());
    EXPECT_NE(f.value().get(), g.value().get());
    EXPECT_EQ(cache.stats().misses, 7u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ModuleCache, EvictsLeastRecentlyUsedAtCapacity)
{
    svc::ModuleCache cache(2);
    std::vector<uint8_t> bytes = wasm::encodeModule(servingModule());
    EngineConfig a_cfg, b_cfg, c_cfg;
    a_cfg.strategy = BoundsStrategy::none;
    b_cfg.strategy = BoundsStrategy::clamp;
    c_cfg.strategy = BoundsStrategy::trap;

    ASSERT_TRUE(cache.getOrCompile(bytes, a_cfg).isOk());
    ASSERT_TRUE(cache.getOrCompile(bytes, b_cfg).isOk());
    // Touch A so B becomes the LRU entry, then insert C.
    bool hit = false;
    ASSERT_TRUE(cache.getOrCompile(bytes, a_cfg, &hit).isOk());
    EXPECT_TRUE(hit);
    ASSERT_TRUE(cache.getOrCompile(bytes, c_cfg).isOk());

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
    // B was evicted: requesting it again is a miss, and re-inserting it
    // evicts A (now the LRU entry), leaving {B, C} resident.
    ASSERT_TRUE(cache.getOrCompile(bytes, b_cfg, &hit).isOk());
    EXPECT_FALSE(hit);
    ASSERT_TRUE(cache.getOrCompile(bytes, c_cfg, &hit).isOk());
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ModuleCache, InvalidBytesAreNotCached)
{
    svc::ModuleCache cache(4);
    std::vector<uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
    EngineConfig config;
    EXPECT_FALSE(cache.getOrCompile(garbage, config).isOk());
    // Failures leave no tombstone: the next attempt re-compiles.
    EXPECT_FALSE(cache.getOrCompile(garbage, config).isOk());
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

// ----------------------------------------------------------------- pool

struct PoolCase
{
    BoundsStrategy strategy;
    bool forceEmulation;
};

class InstancePoolTest : public testing::TestWithParam<PoolCase>
{
  protected:
    std::shared_ptr<const rt::CompiledModule>
    compileServing()
    {
        EngineConfig config;
        config.kind = EngineKind::jit_base;
        config.strategy = GetParam().strategy;
        config.forceUffdEmulation = GetParam().forceEmulation;
        auto compiled = rt::Engine(config).compile(servingModule());
        EXPECT_TRUE(compiled.isOk()) << compiled.status().toString();
        return compiled.isOk() ? compiled.takeValue() : nullptr;
    }
};

/** A recycled instance observes zeroed memory, the initial size, the
 * re-applied data segment and re-initialized globals. */
TEST_P(InstancePoolTest, RecycledInstanceIsFresh)
{
    auto module = compileServing();
    ASSERT_NE(module, nullptr);
    svc::InstancePool pool(module, rt::ImportMap{}, 1);

    {
        auto lease = pool.acquire();
        ASSERT_TRUE(lease.isOk()) << lease.status().toString();
        auto instance = lease.takeValue();
        EXPECT_FALSE(instance.warm());
        // Dirty everything: heap bytes, a grown page, the global.
        EXPECT_EQ(callI32(*instance, "dirty", {Value::fromI32(0xAB)}), 2u);
        EXPECT_EQ(callI32(*instance, "probe", {Value::fromI32(100)}),
                  0xABu);
        EXPECT_EQ(callI32(*instance, "probe", {Value::fromI32(65536)}),
                  0xABu);
        EXPECT_EQ(callI32(*instance, "g"), 99u);
    }

    auto lease = pool.acquire();
    ASSERT_TRUE(lease.isOk()) << lease.status().toString();
    auto instance = lease.takeValue();
    EXPECT_TRUE(instance.warm());
    // Back to the initial size...
    EXPECT_EQ(callI32(*instance, "size"), 1u);
    EXPECT_EQ(instance->memory()->sizeBytes(), uint64_t(wasm::kPageSize));
    // ...previously dirtied bytes zeroed...
    EXPECT_EQ(callI32(*instance, "probe", {Value::fromI32(64)}), 0u);
    EXPECT_EQ(callI32(*instance, "probe", {Value::fromI32(100)}), 0u);
    EXPECT_EQ(callI32(*instance, "probe", {Value::fromI32(1087)}), 0u);
    // ...data segment re-applied, bytes around it zero...
    EXPECT_EQ(callI32(*instance, "probe", {Value::fromI32(8)}), 1u);
    EXPECT_EQ(callI32(*instance, "probe", {Value::fromI32(11)}), 4u);
    EXPECT_EQ(callI32(*instance, "probe", {Value::fromI32(12)}), 0u);
    // ...and globals re-initialized.
    EXPECT_EQ(callI32(*instance, "g"), 7u);

    svc::InstancePoolStats stats = pool.stats();
    EXPECT_EQ(stats.coldAcquires, 1u);
    EXPECT_EQ(stats.warmAcquires, 1u);
}

/** The recycled instance can grow and dirty memory again (the reset
 * didn't break the grow path or the fault handlers). */
TEST_P(InstancePoolTest, RecycledInstanceCanGrowAgain)
{
    auto module = compileServing();
    ASSERT_NE(module, nullptr);
    svc::InstancePool pool(module, rt::ImportMap{}, 1);

    for (int round = 0; round < 3; round++) {
        auto lease = pool.acquire();
        ASSERT_TRUE(lease.isOk());
        auto instance = lease.takeValue();
        EXPECT_EQ(instance.warm(), round > 0);
        EXPECT_EQ(callI32(*instance, "size"), 1u) << "round " << round;
        EXPECT_EQ(callI32(*instance, "dirty", {Value::fromI32(round + 1)}),
                  2u);
        EXPECT_EQ(callI32(*instance, "probe", {Value::fromI32(65536)}),
                  uint32_t(round + 1));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, InstancePoolTest,
    testing::Values(PoolCase{BoundsStrategy::none, false},
                    PoolCase{BoundsStrategy::clamp, false},
                    PoolCase{BoundsStrategy::trap, false},
                    PoolCase{BoundsStrategy::mprotect, false},
                    PoolCase{BoundsStrategy::uffd, false},
                    PoolCase{BoundsStrategy::uffd, true}),
    [](const testing::TestParamInfo<PoolCase>& info) {
        std::string name = mem::boundsStrategyName(info.param.strategy);
        if (info.param.forceEmulation)
            name += "_emulated";
        return name;
    });

TEST(InstancePool, ConcurrentAcquireReleaseIsRaceClean)
{
    EngineConfig config;
    config.strategy = BoundsStrategy::mprotect;
    auto compiled = rt::Engine(config).compile(servingModule());
    ASSERT_TRUE(compiled.isOk());
    svc::InstancePool pool(compiled.takeValue(), rt::ImportMap{}, 4);

    constexpr int kThreads = 8;
    constexpr int kIterations = 40;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&pool, &failures, t] {
            for (int i = 0; i < kIterations; i++) {
                auto lease = pool.acquire();
                if (!lease.isOk()) {
                    failures.fetch_add(1);
                    continue;
                }
                auto instance = lease.takeValue();
                // A warm instance must start fresh even under churn.
                CallOutcome size = instance->callExport("size", {});
                CallOutcome out = instance->callExport(
                    "dirty", {Value::fromI32(t + 1)});
                if (!size.ok() || size.results[0].i32 != 1 || !out.ok() ||
                    out.results[0].i32 != 2)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread& thread : threads)
        thread.join();

    EXPECT_EQ(failures.load(), 0);
    svc::InstancePoolStats stats = pool.stats();
    EXPECT_EQ(stats.warmAcquires + stats.coldAcquires,
              uint64_t(kThreads * kIterations));
    EXPECT_EQ(stats.releases, uint64_t(kThreads * kIterations));
    EXPECT_LE(stats.idle, 4u);
}

TEST(InstancePool, LeaseMoveTransfersOwnership)
{
    auto compiled = rt::Engine(EngineConfig{}).compile(servingModule());
    ASSERT_TRUE(compiled.isOk());
    svc::InstancePool pool(compiled.takeValue(), rt::ImportMap{}, 1);

    auto lease = pool.acquire();
    ASSERT_TRUE(lease.isOk());
    svc::PooledInstance a = lease.takeValue();
    svc::PooledInstance b = std::move(a);
    EXPECT_FALSE(bool(a));
    ASSERT_TRUE(bool(b));
    EXPECT_EQ(callI32(*b, "size"), 1u);
    b.reset(); // explicit early return to the pool
    EXPECT_FALSE(bool(b));
    EXPECT_EQ(pool.stats().releases, 1u);
}

// -------------------------------------------------------------- service

TEST(ExecutionService, BackpressureRejectsInsteadOfBlocking)
{
    svc::SvcConfig config;
    config.workers = 1;
    config.queueDepth = 2;
    config.pinWorkers = false;
    svc::ExecutionService service(config);

    EngineConfig engine_config;
    auto loaded = service.loadModule(
        wasm::encodeModule(spinModule(20'000'000)), engine_config);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    auto module = loaded.takeValue();

    constexpr int kBurst = 12;
    std::vector<std::future<svc::Response>> accepted;
    int rejected = 0;
    for (int i = 0; i < kBurst; i++) {
        svc::Request request;
        request.tenant = "burst";
        request.module = module;
        auto submitted = service.submit(std::move(request));
        if (submitted.isOk())
            accepted.push_back(submitted.takeValue());
        else
            rejected++;
    }
    // One request can be executing and queueDepth can be waiting; the
    // rest of the burst must be rejected, not blocked on.
    EXPECT_GE(rejected, 1);
    EXPECT_GE(accepted.size(), 2u);
    for (auto& future : accepted) {
        svc::Response response = future.get();
        EXPECT_TRUE(response.outcome.ok());
        EXPECT_EQ(response.outcome.results[0].i32, 20'000'000u);
    }
    auto tenants = service.tenantStats();
    ASSERT_EQ(tenants.size(), 1u);
    EXPECT_EQ(tenants[0].first, "burst");
    EXPECT_EQ(tenants[0].second.submitted, uint64_t(accepted.size()));
    EXPECT_EQ(tenants[0].second.rejected, uint64_t(rejected));
    EXPECT_EQ(tenants[0].second.completed, uint64_t(accepted.size()));
}

/**
 * Per-tenant queue-depth quota: with the single worker pinned down by a
 * long-running request, a burst from one tenant is capped at
 * tenantQuota queued requests — the surplus bounces with
 * resource_exhausted while a second tenant still gets in, even though
 * the global queue had room for the whole burst.
 */
TEST(ExecutionService, TenantQuotaCapsBurstWithoutStarvingOthers)
{
    svc::SvcConfig config;
    config.workers = 1;
    config.queueDepth = 16;
    config.tenantQuota = 3;
    config.pinWorkers = false;
    svc::ExecutionService service(config);

    EngineConfig engine_config;
    auto blocker_mod = service.loadModule(
        wasm::encodeModule(spinModule(50'000'000)), engine_config);
    ASSERT_TRUE(blocker_mod.isOk()) << blocker_mod.status().toString();
    auto quick_mod = service.loadModule(
        wasm::encodeModule(spinModule(1000)), engine_config);
    ASSERT_TRUE(quick_mod.isOk()) << quick_mod.status().toString();

    // Occupy the worker, then wait for the blocker to leave the queue so
    // the burst below cannot be drained concurrently.
    svc::Request blocker;
    blocker.tenant = "hog";
    blocker.module = blocker_mod.value();
    auto blocker_future = service.submit(std::move(blocker));
    ASSERT_TRUE(blocker_future.isOk());
    while (service.queueSize() != 0)
        std::this_thread::yield();

    std::vector<std::future<svc::Response>> accepted;
    int rejected = 0;
    for (int i = 0; i < 10; i++) {
        svc::Request request;
        request.tenant = "hog";
        request.module = quick_mod.value();
        auto submitted = service.submit(std::move(request));
        if (submitted.isOk())
            accepted.push_back(submitted.takeValue());
        else
            rejected++;
    }
    EXPECT_EQ(accepted.size(), 3u);
    EXPECT_EQ(rejected, 7);

    // The other tenant is not starved by hog's burst.
    svc::Request other;
    other.tenant = "other";
    other.module = quick_mod.value();
    auto other_future = service.submit(std::move(other));
    ASSERT_TRUE(other_future.isOk())
        << "quota must not reject other tenants";

    EXPECT_EQ(blocker_future.value().get().outcome.results[0].i32,
              50'000'000u);
    for (auto& future : accepted)
        EXPECT_TRUE(future.get().outcome.ok());
    EXPECT_TRUE(other_future.value().get().outcome.ok());

    auto tenants = service.tenantStats();
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants[0].first, "hog");
    EXPECT_EQ(tenants[0].second.submitted, 4u); // blocker + 3 of burst
    EXPECT_EQ(tenants[0].second.rejected, 7u);
    EXPECT_EQ(tenants[0].second.quotaRejected, 7u);
    EXPECT_EQ(tenants[0].second.completed, 4u);
    EXPECT_EQ(tenants[0].second.queued, 0u);
    EXPECT_EQ(tenants[1].first, "other");
    EXPECT_EQ(tenants[1].second.submitted, 1u);
    EXPECT_EQ(tenants[1].second.quotaRejected, 0u);
    EXPECT_EQ(tenants[1].second.completed, 1u);
}

/**
 * Tier state lives in the CompiledModule, so every pooled instance — and
 * every tenant — shares it: once one instance's profile tiers a function
 * up, warm and cold instances alike call the JIT entry, and recycle()
 * (which zeroes only per-instance hotness) does not undo it.
 */
TEST(ExecutionService, TieredModuleSharesTierStateAcrossPool)
{
    svc::SvcConfig config;
    config.workers = 2;
    config.queueDepth = 64;
    config.pinWorkers = false;
    svc::ExecutionService service(config);

    EngineConfig engine_config;
    engine_config.tiered = true;
    engine_config.tierThreshold = 256;
    constexpr int32_t kSpin = 5000;
    auto loaded = service.loadModule(
        wasm::encodeModule(spinModule(kSpin)), engine_config);
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    auto module = loaded.takeValue();
    ASSERT_TRUE(module->config().tiered);

    auto burst = [&](const std::string& tenant, int count) {
        std::vector<std::future<svc::Response>> futures;
        for (int i = 0; i < count; i++) {
            svc::Request request;
            request.tenant = tenant;
            request.module = module;
            auto submitted = service.submit(std::move(request));
            ASSERT_TRUE(submitted.isOk());
            futures.push_back(submitted.takeValue());
        }
        for (auto& future : futures) {
            svc::Response response = future.get();
            ASSERT_TRUE(response.outcome.ok());
            EXPECT_EQ(response.outcome.results[0].i32, uint32_t(kSpin));
        }
    };
    burst("alpha", 8);
    module->drainTierQueue();
    rt::TierStats stats = module->tierStats();
    EXPECT_GE(stats.ups, 1u);
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(module->funcTier(0), exec::Tier::jit);

    // Recycled (warm) instances and a second tenant keep serving
    // correct results from the shared jit tier.
    burst("beta", 8);
    EXPECT_EQ(module->tierStats().ups, stats.ups)
        << "tier-up must happen once per function, not per instance";
}

TEST(ExecutionService, ServesTenantsAndCountsPerTenant)
{
    svc::SvcConfig config;
    config.workers = 2;
    config.queueDepth = 64;
    config.pinWorkers = false;
    svc::ExecutionService service(config);

    std::vector<uint8_t> bytes = wasm::encodeModule(servingModule());
    EngineConfig engine_config;
    bool hit = true;
    auto loaded = service.loadModule(bytes, engine_config, &hit);
    ASSERT_TRUE(loaded.isOk());
    EXPECT_FALSE(hit);
    ASSERT_TRUE(service.loadModule(bytes, engine_config, &hit).isOk());
    EXPECT_TRUE(hit);
    auto module = loaded.takeValue();

    auto call = [&](const std::string& tenant) {
        svc::Request request;
        request.tenant = tenant;
        request.module = module;
        request.exportName = "size";
        auto response = service.call(std::move(request));
        ASSERT_TRUE(response.isOk()) << response.status().toString();
        EXPECT_TRUE(response.value().outcome.ok());
        EXPECT_EQ(response.value().outcome.results[0].i32, 1u);
    };
    for (int i = 0; i < 3; i++)
        call("alpha");
    for (int i = 0; i < 2; i++)
        call("beta");

    auto tenants = service.tenantStats();
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants[0].first, "alpha");
    EXPECT_EQ(tenants[0].second.submitted, 3u);
    EXPECT_EQ(tenants[0].second.completed, 3u);
    EXPECT_EQ(tenants[1].first, "beta");
    EXPECT_EQ(tenants[1].second.submitted, 2u);
    EXPECT_EQ(tenants[1].second.completed, 2u);
    EXPECT_EQ(service.cacheStats().hits, 1u);
}

TEST(ExecutionService, SubmitWithoutModuleIsInvalid)
{
    svc::SvcConfig config;
    config.workers = 1;
    config.pinWorkers = false;
    svc::ExecutionService service(config);
    EXPECT_FALSE(service.submit(svc::Request{}).isOk());
}

// ---------------------------------------------------------- observability

/**
 * Every accepted request gets a nonzero span id minted at admission,
 * returned in the Response, and carried through all four phase spans
 * (queue -> acquire -> exec -> respond) as the async-span correlation
 * id, with phase windows in submission order.
 */
TEST(SvcTracing, SpanIdPropagatesThroughAllPhases)
{
    obs::setTraceEnabledForTesting(true);
    obs::drainTraceEvents(); // discard events from earlier tests

    std::vector<uint64_t> span_ids;
    {
        svc::SvcConfig config;
        config.workers = 1;
        config.pinWorkers = false;
        svc::ExecutionService service(config);
        auto loaded = service.loadModule(
            wasm::encodeModule(spinModule(1000)), EngineConfig{});
        ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();

        for (int i = 0; i < 3; i++) {
            svc::Request request;
            request.tenant = "traced";
            request.module = loaded.value();
            auto response = service.call(std::move(request));
            ASSERT_TRUE(response.isOk()) << response.status().toString();
            EXPECT_NE(response.value().spanId, 0u);
            span_ids.push_back(response.value().spanId);
        }
        // Destroying the service joins the worker, so even the respond
        // span (recorded after the future is fulfilled) is buffered
        // before the drain below.
    }
    std::vector<obs::TraceEvent> events = obs::drainTraceEvents();
    obs::setTraceEnabledForTesting(false);

    EXPECT_EQ(std::set<uint64_t>(span_ids.begin(), span_ids.end()).size(),
              span_ids.size())
        << "span ids must be unique per request";

    for (uint64_t span_id : span_ids) {
        SCOPED_TRACE("span " + std::to_string(span_id));
        std::map<std::string, const obs::TraceEvent*> phases;
        for (const obs::TraceEvent& event : events)
            if (event.kind == obs::TraceKind::asyncSpan &&
                event.asyncId == span_id)
                phases[event.name] = &event;
        ASSERT_EQ(phases.size(), 4u);
        ASSERT_TRUE(phases.count("svc.queue"));
        ASSERT_TRUE(phases.count("svc.acquire"));
        ASSERT_TRUE(phases.count("svc.exec"));
        ASSERT_TRUE(phases.count("svc.respond"));
        EXPECT_LE(phases["svc.queue"]->startNanos,
                  phases["svc.acquire"]->startNanos);
        EXPECT_LE(phases["svc.acquire"]->startNanos,
                  phases["svc.exec"]->startNanos);
        EXPECT_LE(phases["svc.exec"]->startNanos,
                  phases["svc.respond"]->startNanos);
        EXPECT_GT(phases["svc.exec"]->durationNanos, 0u);
    }

    // The per-phase latency histograms saw every request.
    obs::MetricsSnapshot snapshot = obs::snapshotMetrics();
    for (const char* name : {"svc.phase_acquire_ns", "svc.phase_exec_ns",
                             "svc.phase_respond_ns"}) {
        const obs::HistogramSnapshot* hist = snapshot.histogram(name);
        ASSERT_NE(hist, nullptr) << name;
        EXPECT_GE(hist->totalCount, 3u) << name;
    }
}

/** One-shot HTTP GET against 127.0.0.1:@p port; returns the full
 * response (headers + body), or "" on any socket failure. */
std::string
httpGet(uint16_t port, const char* path)
{
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        close(fd);
        return "";
    }
    std::string request = std::string("GET ") + path +
                          " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    size_t sent = 0;
    while (sent < request.size()) {
        ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                         0);
        if (n <= 0) {
            close(fd);
            return "";
        }
        sent += size_t(n);
    }
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, size_t(n));
    close(fd);
    return response;
}

/** The embedded stats endpoint serves Prometheus text with live service
 * counters, a health probe, and 404s everything else. */
TEST(StatsServer, ServesPrometheusMetricsAndHealth)
{
    // Generate some service traffic so svc counters exist and are >0.
    svc::SvcConfig config;
    config.workers = 1;
    config.pinWorkers = false;
    svc::ExecutionService service(config);
    auto loaded = service.loadModule(
        wasm::encodeModule(spinModule(1000)), EngineConfig{});
    ASSERT_TRUE(loaded.isOk());
    svc::Request request;
    request.tenant = "scrape";
    request.module = loaded.value();
    ASSERT_TRUE(service.call(std::move(request)).isOk());

    svc::StatsServer server;
    ASSERT_TRUE(server.start(0).isOk());
    ASSERT_TRUE(server.running());
    ASSERT_NE(server.port(), 0u);

    std::string metrics = httpGet(server.port(), "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(metrics.find("lnb_svc_requests_completed"),
              std::string::npos);
    EXPECT_NE(metrics.find("lnb_svc_phase_exec_ns_count"),
              std::string::npos);

    std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(health.find("ok"), std::string::npos);

    std::string missing = httpGet(server.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);

    server.stop();
    EXPECT_FALSE(server.running());
}

/**
 * Misbehaving clients must neither wedge the single serving thread nor
 * kill the process: a connection that never sends a request (port scan,
 * hung scraper) is timed out so later scrapes still answer and stop()
 * completes, and clients that hang up before reading the response
 * (curl timeout, health-checker disconnect) must not SIGPIPE the
 * process mid-write.
 */
TEST(StatsServer, SurvivesHungAndDisconnectingClients)
{
    svc::StatsServer server;
    ASSERT_TRUE(server.start(0).isOk());

    // A client that connects and sends nothing occupies the serving
    // thread until its read times out (~2s).
    int idle = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(idle, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(connect(idle, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
              0);

    // Clients that fire a request and immediately hang up: close() with
    // the response unread sends RST, so the server's in-flight writes
    // see EPIPE/ECONNRESET — which must stay an errno, not a SIGPIPE.
    for (int i = 0; i < 8; i++) {
        int fd = socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        if (connect(fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
            const char request[] = "GET /metrics HTTP/1.1\r\n\r\n";
            (void)send(fd, request, sizeof request - 1, 0);
        }
        close(fd);
    }

    // Despite the still-idle connection and the disconnects, a proper
    // scrape gets through once the idle client times out.
    std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);

    close(idle);
    server.stop(); // must not hang on a blocked client read
    EXPECT_FALSE(server.running());
}

// ------------------------------------------------------------------ env

TEST(SvcConfig, StrictEnvParsingFallsBackOnGarbage)
{
    setenv("LNB_SVC_QUEUE_DEPTH", "banana", 1);
    setenv("LNB_SVC_WORKERS", "-3", 1);
    setenv("LNB_SVC_POOL_MAX_IDLE", "12", 1);
    setenv("LNB_SVC_TENANT_QUOTA", "5", 1);
    svc::SvcConfig config = svc::svcConfigFromEnv();
    EXPECT_EQ(config.queueDepth, 256u); // non-numeric -> default
    EXPECT_EQ(config.workers, 0);      // out of range -> default
    EXPECT_EQ(config.poolMaxIdle, 12u); // valid -> honored
    EXPECT_EQ(config.tenantQuota, 5u);
    unsetenv("LNB_SVC_QUEUE_DEPTH");
    unsetenv("LNB_SVC_WORKERS");
    unsetenv("LNB_SVC_POOL_MAX_IDLE");
    unsetenv("LNB_SVC_TENANT_QUOTA");
}

} // namespace
} // namespace lnb
