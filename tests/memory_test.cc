/**
 * @file
 * Unit and property tests for the memory subsystem: every bounds
 * strategy's backend (creation, grow semantics, data init, fault
 * accounting), page-boundary properties, and the lock-free arena
 * registry.
 */
#include <gtest/gtest.h>

#include <thread>

#include "mem/arena_registry.h"
#include "mem/linear_memory.h"
#include "mem/signals.h"
#include "support/rng.h"

namespace lnb::mem {
namespace {

using wasm::kPageSize;
using wasm::Limits;

class MemoryStrategyTest
    : public testing::TestWithParam<BoundsStrategy>
{
  protected:
    std::unique_ptr<LinearMemory>
    make(uint32_t min_pages, uint32_t max_pages)
    {
        MemoryConfig config;
        config.strategy = GetParam();
        auto result =
            LinearMemory::create(Limits{min_pages, max_pages}, config);
        EXPECT_TRUE(result.isOk()) << result.status().toString();
        return result.isOk() ? result.takeValue() : nullptr;
    }
};

TEST_P(MemoryStrategyTest, CreateAndInitialSize)
{
    auto memory = make(3, 10);
    ASSERT_NE(memory, nullptr);
    EXPECT_EQ(memory->sizePages(), 3u);
    EXPECT_EQ(memory->sizeBytes(), 3 * kPageSize);
    EXPECT_NE(memory->base(), nullptr);
}

TEST_P(MemoryStrategyTest, GrowSemantics)
{
    auto memory = make(1, 4);
    ASSERT_NE(memory, nullptr);
    EXPECT_EQ(memory->grow(2), 1);  // returns old size
    EXPECT_EQ(memory->sizePages(), 3u);
    EXPECT_EQ(memory->grow(0), 3);  // zero-grow returns current
    EXPECT_EQ(memory->grow(5), -1); // over max
    EXPECT_EQ(memory->sizePages(), 3u);
    EXPECT_EQ(memory->grow(1), 3);
    EXPECT_EQ(memory->sizePages(), 4u);
}

TEST_P(MemoryStrategyTest, MemoryIsReadableWritableAndZeroed)
{
    auto memory = make(2, 4);
    ASSERT_NE(memory, nullptr);
    // Under TrapManager protection (uffd strategies fault pages in).
    TrapManager::install();
    wasm::TrapKind trap = TrapManager::protect([&] {
        uint8_t* base = memory->base();
        for (uint64_t off : {uint64_t(0), kPageSize - 1, kPageSize,
                             2 * kPageSize - 1}) {
            EXPECT_EQ(base[off], 0) << off; // fresh memory reads zero
            base[off] = uint8_t(off + 1);
            EXPECT_EQ(base[off], uint8_t(off + 1));
        }
    });
    EXPECT_EQ(trap, wasm::TrapKind::none);
}

TEST_P(MemoryStrategyTest, GrownRegionAccessible)
{
    auto memory = make(1, 4);
    ASSERT_NE(memory, nullptr);
    ASSERT_EQ(memory->grow(1), 1);
    wasm::TrapKind trap = TrapManager::protect([&] {
        memory->base()[2 * kPageSize - 1] = 42;
    });
    EXPECT_EQ(trap, wasm::TrapKind::none);
}

TEST_P(MemoryStrategyTest, InitDataBoundsChecked)
{
    auto memory = make(1, 1);
    ASSERT_NE(memory, nullptr);
    const uint8_t data[] = {9, 8, 7};
    wasm::TrapKind trap = TrapManager::protect([&] {
        EXPECT_TRUE(memory->initData(100, data, 3).isOk());
        EXPECT_EQ(memory->base()[101], 8);
        EXPECT_FALSE(
            memory->initData(uint32_t(kPageSize) - 2, data, 3).isOk());
    });
    EXPECT_EQ(trap, wasm::TrapKind::none);
}

TEST_P(MemoryStrategyTest, BaseNeverMovesAcrossGrowResetOrRestore)
{
    // The optimizing JIT keeps base() in a register for a whole call and
    // reloads it only after native calls: no grow, recycle or snapshot
    // restore may move it.
    TrapManager::install();
    auto memory = make(1, 8);
    ASSERT_NE(memory, nullptr);
    uint8_t* const base = memory->base();
    ASSERT_EQ(memory->grow(2), 1);
    EXPECT_EQ(memory->base(), base);
    ASSERT_TRUE(memory->reset().isOk());
    EXPECT_EQ(memory->base(), base);
    ASSERT_EQ(memory->sizePages(), 1u);

    auto snap = memory->snapshot();
    if (!snap.isOk()) {
        // Only the uffd emulation refuses a template.
        EXPECT_EQ(memory->arenaKind(), ArenaKind::uffd_emu)
            << snap.status().toString();
        return;
    }
    ASSERT_TRUE(memory->adoptSnapshot(snap.takeValue()).isOk());
    EXPECT_EQ(memory->base(), base);
    ASSERT_EQ(memory->grow(3), 1);
    wasm::TrapKind trap = TrapManager::protect([&] {
        memory->base()[3 * kPageSize] = 7;
    });
    ASSERT_EQ(trap, wasm::TrapKind::none);
    bool grew_past = false;
    ASSERT_TRUE(memory->restoreFromSnapshot(&grew_past).isOk());
    EXPECT_TRUE(grew_past);
    EXPECT_EQ(memory->base(), base);
    EXPECT_EQ(memory->sizePages(), 1u);
    ASSERT_EQ(memory->grow(1), 1);
    EXPECT_EQ(memory->base(), base);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, MemoryStrategyTest,
    testing::Values(BoundsStrategy::none, BoundsStrategy::clamp,
                    BoundsStrategy::trap, BoundsStrategy::mprotect,
                    BoundsStrategy::uffd),
    [](const testing::TestParamInfo<BoundsStrategy>& info) {
        return std::string(boundsStrategyName(info.param));
    });

// ---------------------------------------------------------------------
// Guard-page strategy specifics
// ---------------------------------------------------------------------

TEST(GuardMemory, MprotectFaultBeyondSizeTraps)
{
    MemoryConfig config;
    config.strategy = BoundsStrategy::mprotect;
    auto memory =
        LinearMemory::create(Limits{1, 4}, config).takeValue();
    TrapManager::install();
    wasm::TrapKind trap = TrapManager::protect([&] {
        volatile uint8_t v = memory->base()[kPageSize]; // first OOB byte
        (void)v;
    });
    EXPECT_EQ(trap, wasm::TrapKind::out_of_bounds_memory);
    EXPECT_EQ(memory->faultsTrapped(), 1u);
}

TEST(GuardMemory, UffdPopulatesBelowBoundsTrapsAbove)
{
    MemoryConfig config;
    config.strategy = BoundsStrategy::uffd;
    config.forceUffdEmulation = true;
    auto memory =
        LinearMemory::create(Limits{2, 4}, config).takeValue();
    TrapManager::install();

    wasm::TrapKind ok = TrapManager::protect([&] {
        memory->base()[5] = 1;               // populates page 0
        memory->base()[kPageSize + 7] = 2;   // populates page 1
    });
    EXPECT_EQ(ok, wasm::TrapKind::none);
    EXPECT_EQ(memory->faultsHandled(), 2u);

    wasm::TrapKind oob = TrapManager::protect([&] {
        volatile uint8_t v = memory->base()[2 * kPageSize];
        (void)v;
    });
    EXPECT_EQ(oob, wasm::TrapKind::out_of_bounds_memory);
    EXPECT_EQ(memory->faultsTrapped(), 1u);

    // Grow is syscall-free: the previously-OOB page becomes accessible.
    EXPECT_EQ(memory->grow(1), 2);
    EXPECT_EQ(memory->resizeSyscalls(), 0u);
    wasm::TrapKind after = TrapManager::protect([&] {
        memory->base()[2 * kPageSize] = 3;
    });
    EXPECT_EQ(after, wasm::TrapKind::none);
}

TEST(GuardMemory, RealUffdPopulatesOneWasmPagePerFault)
{
    if (!realUffdAvailable())
        GTEST_SKIP() << "kernel userfaultfd unavailable";
    MemoryConfig config;
    config.strategy = BoundsStrategy::uffd;
    auto memory =
        LinearMemory::create(Limits{3, 4}, config).takeValue();
    TrapManager::install();

    // Touch every 4 KiB page of the first two wasm pages, and one byte
    // of the third: the first touch of a wasm page populates all of it.
    wasm::TrapKind ok = TrapManager::protect([&] {
        for (uint64_t off = 0; off < 2 * kPageSize; off += 4096)
            memory->base()[off + 9] = uint8_t(off >> 12);
        memory->base()[2 * kPageSize + 40000] = 7;
    });
    EXPECT_EQ(ok, wasm::TrapKind::none);
    EXPECT_EQ(memory->faultsHandled(), 3u);
    EXPECT_EQ(memory->base()[kPageSize + 4096 + 9], 17);

    wasm::TrapKind oob = TrapManager::protect([&] {
        volatile uint8_t v = memory->base()[3 * kPageSize];
        (void)v;
    });
    EXPECT_EQ(oob, wasm::TrapKind::out_of_bounds_memory);
    EXPECT_EQ(memory->faultsTrapped(), 1u);
    EXPECT_EQ(memory->faultsHandled(), 3u);
}

TEST(GuardMemory, RealUffdFreshMemorySnapshots)
{
    if (!realUffdAvailable())
        GTEST_SKIP() << "kernel userfaultfd unavailable";
    // The capture touches one byte per wasm page before its pwrite,
    // which reads every 4 KiB page: each must be populated by then.
    // With one 4 KiB page per fault the pwrite failed, and every uffd
    // instance fell back to a full instantiation.
    MemoryConfig config;
    config.strategy = BoundsStrategy::uffd;
    auto memory =
        LinearMemory::create(Limits{2, 4}, config).takeValue();
    TrapManager::install();
    auto snap = memory->snapshot();
    ASSERT_TRUE(snap.isOk()) << snap.status().toString();
    EXPECT_EQ(snap.value()->sizeBytes(), 2 * kPageSize);
}

TEST(GuardMemory, MprotectGrowCountsSyscalls)
{
    MemoryConfig config;
    config.strategy = BoundsStrategy::mprotect;
    auto memory =
        LinearMemory::create(Limits{1, 8}, config).takeValue();
    uint64_t initial = memory->resizeSyscalls();
    memory->grow(1);
    memory->grow(2);
    EXPECT_EQ(memory->resizeSyscalls(), initial + 2);
}

TEST(GuardMemory, ClampOffsetInsideReservation)
{
    MemoryConfig config;
    config.strategy = BoundsStrategy::clamp;
    auto memory =
        LinearMemory::create(Limits{1, 16}, config).takeValue();
    // The red zone sits past the maximum size and is writable.
    EXPECT_EQ(memory->clampOffset(), 16 * kPageSize);
    memory->base()[memory->clampOffset()] = 77;
    EXPECT_EQ(memory->base()[memory->clampOffset()], 77);
}

// ---------------------------------------------------------------------
// Arena registry (lock-free find used by signal handlers)
// ---------------------------------------------------------------------

TEST(ArenaRegistry, AddFindRemove)
{
    alignas(4096) static uint8_t fake[8192];
    int before = ArenaRegistry::count();
    ArenaInfo* arena =
        ArenaRegistry::add(fake, sizeof fake, ArenaKind::guard, 4096);
    ASSERT_NE(arena, nullptr);
    EXPECT_EQ(ArenaRegistry::count(), before + 1);

    EXPECT_EQ(ArenaRegistry::find(fake), arena);
    EXPECT_EQ(ArenaRegistry::find(fake + 8191), arena);
    EXPECT_EQ(ArenaRegistry::find(fake + 8192), nullptr);

    ArenaRegistry::remove(arena);
    EXPECT_EQ(ArenaRegistry::find(fake), nullptr);
    EXPECT_EQ(ArenaRegistry::count(), before);
}

TEST(ArenaRegistry, ConcurrentAddRemoveIsSafe)
{
    constexpr int kThreads = 4, kIters = 500;
    std::vector<std::thread> threads;
    static uint8_t blocks[kThreads][4096];
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([t] {
            for (int i = 0; i < kIters; i++) {
                ArenaInfo* arena = ArenaRegistry::add(
                    blocks[t], sizeof blocks[t], ArenaKind::uffd_emu,
                    4096);
                ASSERT_NE(arena, nullptr);
                EXPECT_EQ(ArenaRegistry::find(blocks[t]), arena);
                ArenaRegistry::remove(arena);
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
}

// ---------------------------------------------------------------------
// Trap manager
// ---------------------------------------------------------------------

TEST(TrapManager, NestedProtection)
{
    TrapManager::install();
    wasm::TrapKind outer = TrapManager::protect([&] {
        wasm::TrapKind inner = TrapManager::protect([&] {
            TrapManager::raiseTrap(wasm::TrapKind::unreachable);
        });
        EXPECT_EQ(inner, wasm::TrapKind::unreachable);
        // The outer frame is still intact.
        TrapManager::raiseTrap(wasm::TrapKind::integer_overflow);
    });
    EXPECT_EQ(outer, wasm::TrapKind::integer_overflow);
}

TEST(TrapManager, ProtectReturnsNoneOnSuccess)
{
    EXPECT_EQ(TrapManager::protect([] {}), wasm::TrapKind::none);
    EXPECT_FALSE(TrapManager::inProtectedScope());
}

// ---------------------------------------------------------------------
// Property test: random grow sequences keep bounds coherent
// ---------------------------------------------------------------------

TEST(MemoryProperty, RandomGrowSequences)
{
    Rng rng(123);
    for (int round = 0; round < 20; round++) {
        BoundsStrategy strategy = BoundsStrategy(rng.nextBelow(5));
        MemoryConfig config;
        config.strategy = strategy;
        uint32_t max_pages = uint32_t(2 + rng.nextBelow(30));
        auto result =
            LinearMemory::create(Limits{1, max_pages}, config);
        ASSERT_TRUE(result.isOk());
        auto memory = result.takeValue();

        uint32_t expected = 1;
        for (int step = 0; step < 12; step++) {
            uint32_t delta = uint32_t(rng.nextBelow(6));
            int64_t previous = memory->grow(delta);
            if (expected + delta <= max_pages) {
                EXPECT_EQ(previous, int64_t(expected));
                expected += delta;
            } else {
                EXPECT_EQ(previous, -1);
            }
            EXPECT_EQ(memory->sizePages(), expected);
        }
        // The last byte of the final size is writable; one past traps
        // for guard strategies.
        wasm::TrapKind tail = TrapManager::protect([&] {
            memory->base()[uint64_t(expected) * kPageSize - 1] = 1;
        });
        EXPECT_EQ(tail, wasm::TrapKind::none)
            << boundsStrategyName(strategy);
    }
}

} // namespace
} // namespace lnb::mem
