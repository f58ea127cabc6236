#include "mem/linear_memory.h"

#include <fcntl.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#if __has_include(<linux/userfaultfd.h>)
#include <linux/userfaultfd.h>
#define LNB_HAVE_UFFD_HEADER 1
#endif

#include <cerrno>
#include <cstring>

#include "mem/signals.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/log.h"

namespace lnb::mem {

namespace {

/** Registry handles for the memory-management counters (paper §4.1.1:
 * syscalls on the grow path are the quantity under study). */
struct MemMetrics
{
    obs::Counter memoriesCreated = obs::registerCounter(
        "mem.memories_created");
    obs::Counter mmapCalls = obs::registerCounter("mem.mmap_calls");
    obs::Counter growCalls = obs::registerCounter("mem.grow_calls");
    obs::Counter resizeSyscalls = obs::registerCounter(
        "mem.resize_syscalls");
    obs::Counter growFailures = obs::registerCounter(
        "mem.grow_failures");
    obs::Counter resetCalls = obs::registerCounter("mem.reset_calls");
    obs::Counter resetSyscalls = obs::registerCounter(
        "mem.reset_syscalls");
    /** Shared-memory grow traffic (threads subsystem, DESIGN.md §12). */
    obs::Counter sharedGrowCalls = obs::registerCounter(
        "mem.shared_grow_calls");
    obs::Counter sharedGrowContended = obs::registerCounter(
        "mem.shared_grow_contended");
    obs::Histogram growLatency = obs::registerHistogram(
        "mem.grow_ns");
    obs::Histogram resetLatency = obs::registerHistogram(
        "mem.reset_ns");
    /** Snapshot/restore protocol traffic (DESIGN.md §14). */
    obs::Counter snapshotCaptures = obs::registerCounter(
        "mem.snapshot_captures");
    obs::Counter snapshotAdopts = obs::registerCounter(
        "mem.snapshot_adopts");
    obs::Counter restoreCalls = obs::registerCounter(
        "mem.restore_calls");
    obs::Histogram restoreLatency = obs::registerHistogram(
        "mem.restore_ns");
};

MemMetrics&
memMetrics()
{
    static MemMetrics m;
    return m;
}

} // namespace

const char*
boundsStrategyName(BoundsStrategy strategy)
{
    switch (strategy) {
      case BoundsStrategy::none: return "none";
      case BoundsStrategy::clamp: return "clamp";
      case BoundsStrategy::trap: return "trap";
      case BoundsStrategy::mprotect: return "mprotect";
      case BoundsStrategy::uffd: return "uffd";
    }
    return "?";
}

bool
boundsStrategyFromName(const std::string& name, BoundsStrategy& out)
{
    for (int i = 0; i < kNumBoundsStrategies; i++) {
        if (name == boundsStrategyName(BoundsStrategy(i))) {
            out = BoundsStrategy(i);
            return true;
        }
    }
    return false;
}

namespace {

/** Probe for userfaultfd with the SIGBUS feature; cached. */
bool
probeRealUffd()
{
#ifdef LNB_HAVE_UFFD_HEADER
    long fd = syscall(SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK);
    if (fd < 0)
        return false;
    bool ok = false;
#ifdef UFFD_FEATURE_SIGBUS
    struct uffdio_api api;
    std::memset(&api, 0, sizeof api);
    api.api = UFFD_API;
    api.features = UFFD_FEATURE_SIGBUS;
    ok = ioctl(int(fd), UFFDIO_API, &api) == 0 &&
         (api.features & UFFD_FEATURE_SIGBUS) != 0;
#endif
    close(int(fd));
    return ok;
#else
    return false;
#endif
}

} // namespace

bool
realUffdAvailable()
{
    static const bool available = probeRealUffd();
    return available;
}

MemorySnapshot::~MemorySnapshot()
{
    if (fd_ >= 0)
        close(fd_);
}

Result<std::unique_ptr<LinearMemory>>
LinearMemory::create(const wasm::Limits& limits, const MemoryConfig& config)
{
    LNB_TRACE_SCOPE("mem.create");
    TrapManager::install();
    memMetrics().memoriesCreated.add();
    memMetrics().mmapCalls.add();

    auto mem = std::unique_ptr<LinearMemory>(new LinearMemory());
    mem->config_ = config;
    mem->maxPages_ =
        limits.hasMax() ? std::min(limits.max, wasm::kMaxPages)
                        : wasm::kMaxPages;
    if (limits.min > mem->maxPages_)
        return errInvalid("memory minimum exceeds maximum");
    if (config.shared && !limits.hasMax())
        return errInvalid("shared memory requires a declared maximum");
    uint64_t initial_bytes = uint64_t(limits.min) * wasm::kPageSize;

    // Shared memories use MAP_SHARED shmem mappings for the flat and guard
    // backings: genuinely process-shared pages with the kernel's shmem VMA
    // accounting, the configuration whose mprotect-on-grow contention the
    // thread-scaling benchmark measures. The uffd backings stay on
    // MAP_PRIVATE — userfaultfd MISSING registration on shmem needs an
    // extra feature flag on older kernels, and private anonymous pages are
    // already visible to every thread of the process, which is the only
    // sharing the spawn API creates.
    const int vis_flags =
        config.shared ? MAP_SHARED | MAP_ANONYMOUS | MAP_NORESERVE
                      : MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;

    switch (config.strategy) {
      case BoundsStrategy::none: {
        // Entire addressable window read-write mapped; no checks anywhere.
        void* p = mmap(nullptr, kGuardReserveBytes, PROT_READ | PROT_WRITE,
                       vis_flags, -1, 0);
        if (p == MAP_FAILED)
            return errResource("mmap of flat reservation failed");
        mem->base_ = static_cast<uint8_t*>(p);
        mem->reserveBytes_ = kGuardReserveBytes;
        mem->arenaKind_ = ArenaKind::flat;
        mem->clampOffset_ = kGuardReserveBytes - 64;
        break;
      }

      case BoundsStrategy::clamp:
      case BoundsStrategy::trap: {
        // Software checks: commit the whole max range lazily plus one red
        // zone page that clamped accesses can land in.
        uint64_t max_bytes = uint64_t(mem->maxPages_) * wasm::kPageSize;
        uint64_t reserve = max_bytes + wasm::kPageSize;
        void* p = mmap(nullptr, reserve, PROT_READ | PROT_WRITE,
                       vis_flags, -1, 0);
        if (p == MAP_FAILED)
            return errResource("mmap of software-check memory failed");
        mem->base_ = static_cast<uint8_t*>(p);
        mem->reserveBytes_ = reserve;
        mem->arenaKind_ = ArenaKind::flat;
        mem->clampOffset_ = max_bytes;
        break;
      }

      case BoundsStrategy::mprotect: {
        void* p = mmap(nullptr, kGuardReserveBytes, PROT_NONE,
                       vis_flags, -1, 0);
        if (p == MAP_FAILED)
            return errResource("mmap of guard reservation failed");
        // From here the reservation belongs to `mem`: any later failure
        // returns through the destructor, which unmaps exactly once.
        mem->base_ = static_cast<uint8_t*>(p);
        mem->reserveBytes_ = kGuardReserveBytes;
        mem->arenaKind_ = ArenaKind::guard;
        mem->clampOffset_ = 0;
        if (initial_bytes != 0 &&
            mprotect(p, initial_bytes, PROT_READ | PROT_WRITE) != 0) {
            return errResource("initial mprotect failed");
        }
        mem->resizeSyscalls_.fetch_add(1, std::memory_order_relaxed);
        memMetrics().resizeSyscalls.add();
        break;
      }

      case BoundsStrategy::uffd: {
        bool real = realUffdAvailable() && !config.forceUffdEmulation;
        if (real) {
#ifdef LNB_HAVE_UFFD_HEADER
            void* p = mmap(nullptr, kGuardReserveBytes,
                           PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                           0);
            if (p == MAP_FAILED)
                return errResource("mmap of uffd reservation failed");
            // Hand the reservation (and below, the fd) to `mem` before
            // the fallible ioctls, so every failure path unwinds through
            // the destructor instead of duplicating cleanup here.
            mem->base_ = static_cast<uint8_t*>(p);
            mem->reserveBytes_ = kGuardReserveBytes;
            mem->arenaKind_ = ArenaKind::uffd_real;
            long fd = syscall(SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK);
            if (fd < 0)
                return errResource("userfaultfd syscall failed");
            mem->uffdFd_ = int(fd);
            struct uffdio_api api;
            std::memset(&api, 0, sizeof api);
            api.api = UFFD_API;
            api.features = UFFD_FEATURE_SIGBUS;
            struct uffdio_register reg;
            std::memset(&reg, 0, sizeof reg);
            reg.range.start = reinterpret_cast<unsigned long>(p);
            reg.range.len = kGuardReserveBytes;
            reg.mode = UFFDIO_REGISTER_MODE_MISSING;
            if (ioctl(int(fd), UFFDIO_API, &api) != 0 ||
                ioctl(int(fd), UFFDIO_REGISTER, &reg) != 0) {
                return errResource("userfaultfd registration failed");
            }
#endif
        } else {
            // Emulation: PROT_NONE reservation; the fault handler grants
            // page-granular access below the atomic bounds word.
            void* p = mmap(nullptr, kGuardReserveBytes, PROT_NONE,
                           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                           0);
            if (p == MAP_FAILED)
                return errResource("mmap of uffd-emu reservation failed");
            mem->base_ = static_cast<uint8_t*>(p);
            mem->reserveBytes_ = kGuardReserveBytes;
            mem->arenaKind_ = ArenaKind::uffd_emu;
        }
        mem->clampOffset_ = 0;
        break;
      }
    }

    mem->sizeBytes_.store(initial_bytes, std::memory_order_release);
    mem->initialBytes_ = initial_bytes;
    mem->highWaterBytes_ = initial_bytes;

    if (mem->arenaKind_ != ArenaKind::flat) {
        mem->arena_ = ArenaRegistry::add(mem->base_, mem->reserveBytes_,
                                         mem->arenaKind_, initial_bytes);
        if (mem->arena_ == nullptr) {
            return errResource("arena registry full");
        }
        mem->arena_->uffdFd = mem->uffdFd_;
    }
    return mem;
}

LinearMemory::~LinearMemory()
{
    if (arena_ != nullptr)
        ArenaRegistry::remove(arena_);
    if (uffdFd_ >= 0)
        close(uffdFd_);
    if (base_ != nullptr)
        munmap(base_, reserveBytes_);
}

int64_t
LinearMemory::grow(uint32_t delta_pages)
{
    obs::ScopedLatency latency(memMetrics().growLatency);
    memMetrics().growCalls.add();
    // Concurrent growers on a shared memory serialize here; count how
    // often a grower actually waited (the re-protect contention the
    // thread-scaling benchmark reports as mem.shared_grow_contended).
    std::unique_lock<std::mutex> lock(growMutex_, std::defer_lock);
    if (config_.shared) {
        sharedGrowCalls_.fetch_add(1, std::memory_order_relaxed);
        memMetrics().sharedGrowCalls.add();
        if (!lock.try_lock()) {
            sharedGrowContended_.fetch_add(1, std::memory_order_relaxed);
            memMetrics().sharedGrowContended.add();
            lock.lock();
        }
    } else {
        lock.lock();
    }
    uint64_t old_bytes = sizeBytes_.load(std::memory_order_relaxed);
    uint64_t old_pages = old_bytes / wasm::kPageSize;
    uint64_t new_pages = old_pages + delta_pages;
    if (new_pages > maxPages_) {
        memMetrics().growFailures.add();
        return -1;
    }
    uint64_t new_bytes = new_pages * wasm::kPageSize;
    if (delta_pages == 0)
        return int64_t(old_pages);

    if (config_.strategy == BoundsStrategy::mprotect) {
        // The paper's default scheme: adjust protections for the newly
        // valid range. In Linux this serializes on the process VMA lock.
        if (mprotect(base_ + old_bytes, new_bytes - old_bytes,
                     PROT_READ | PROT_WRITE) != 0) {
            memMetrics().growFailures.add();
            return -1;
        }
        resizeSyscalls_.fetch_add(1, std::memory_order_relaxed);
        memMetrics().resizeSyscalls.add();
    }
    // uffd / none / software strategies: the bounds word is the only state
    // that changes — no syscall on the grow path.

    // Publication order matters for shared memories: the pages are made
    // accessible (mprotect above / fault-handler grants) BEFORE the bounds
    // words advance, so an in-flight guard fault on another thread always
    // classifies against a bounds value whose range is already mapped —
    // it can spuriously trap on a racing unsynchronized access (allowed
    // by the threads memory model) but never fault on a "valid" address.
    if (arena_ != nullptr)
        arena_->bounds.store(new_bytes, std::memory_order_release);
    sizeBytes_.store(new_bytes, std::memory_order_release);
    if (new_bytes > highWaterBytes_)
        highWaterBytes_ = new_bytes;
    return int64_t(old_pages);
}

Status
LinearMemory::reset()
{
    LNB_TRACE_SCOPE("mem.reset");
    if (config_.shared) {
        // MADV_DONTNEED does not zero MAP_SHARED shmem pages, and the
        // reset contract (no thread executing against the memory) cannot
        // be asserted for a memory whose whole point is concurrent use.
        return errUnsupported("shared memories cannot be reset");
    }
    obs::ScopedLatency latency(memMetrics().resetLatency);
    memMetrics().resetCalls.add();
    std::lock_guard<std::mutex> lock(growMutex_);
    uint64_t high = highWaterBytes_;
    uint64_t syscalls = 0;

    switch (arenaKind_) {
      case ArenaKind::flat:
        // `none` allows silent out-of-bounds stores anywhere in the
        // reservation and clamp redirects into the red zone past the max
        // size, so the zap must cover the whole mapping, not just the
        // high-water prefix. MADV_DONTNEED walks only resident ranges.
        if (madvise(base_, reserveBytes_, MADV_DONTNEED) != 0)
            return errResource("reset madvise failed");
        syscalls = 1;
        break;

      case ArenaKind::guard:
        // Revoke the grown range first so a racing stray access can at
        // worst observe zeroed-but-accessible pages below the initial
        // size, never stale data.
        if (high > initialBytes_) {
            if (mprotect(base_ + initialBytes_, high - initialBytes_,
                         PROT_NONE) != 0) {
                return errResource("reset re-protect failed");
            }
            syscalls++;
        }
        if (high != 0) {
            if (madvise(base_, high, MADV_DONTNEED) != 0)
                return errResource("reset madvise failed");
            syscalls++;
        }
        break;

      case ArenaKind::uffd_real:
        // The userfaultfd registration is per-VMA and survives
        // MADV_DONTNEED: zapped pages go back to "missing" and the next
        // access below bounds repopulates through the fault handler.
        if (high != 0) {
            if (madvise(base_, high, MADV_DONTNEED) != 0)
                return errResource("reset madvise failed");
            syscalls++;
        }
        break;

      case ArenaKind::uffd_emu:
        // The fault handler granted RW page by page below the bounds
        // word; one range-wide mprotect revokes every grant.
        if (high != 0) {
            if (mprotect(base_, high, PROT_NONE) != 0)
                return errResource("reset re-protect failed");
            if (madvise(base_, high, MADV_DONTNEED) != 0)
                return errResource("reset madvise failed");
            syscalls += 2;
        }
        break;
    }

    if (arena_ != nullptr)
        arena_->bounds.store(initialBytes_, std::memory_order_release);
    sizeBytes_.store(initialBytes_, std::memory_order_release);
    highWaterBytes_ = initialBytes_;
    memMetrics().resetSyscalls.add(syscalls);
    return Status::ok();
}

Result<std::shared_ptr<MemorySnapshot>>
LinearMemory::snapshot()
{
    LNB_TRACE_SCOPE("mem.snapshot");
    if (config_.shared)
        return errUnsupported("shared memories cannot be snapshotted");
    if (arenaKind_ == ArenaKind::uffd_emu) {
        // The emulation grants access with page-granular mprotect calls
        // that would not survive (or compose with) a file-backed
        // MAP_FIXED replacement mapping.
        return errUnsupported(
            "uffd emulation cannot back a CoW template");
    }
    uint64_t size = sizeBytes_.load(std::memory_order_acquire);
    if (size == 0)
        return errUnsupported("empty memory has nothing to snapshot");

    int fd = int(memfd_create("lnb-mem-template", MFD_CLOEXEC));
    if (fd < 0)
        return errResource("memfd_create failed");
    auto snap =
        std::shared_ptr<MemorySnapshot>(new MemorySnapshot(fd, size));
    if (ftruncate(fd, off_t(size)) != 0)
        return errResource("snapshot ftruncate failed");
    // For uffd_real, fault-populate every page below bounds from user
    // space before the pwrite: kernel-side access (copy_from_user)
    // reports EFAULT for missing registered pages instead of raising
    // the SIGBUS the fault handler resolves. Every 4 KiB page is read:
    // the handler usually populates the whole wasm page, but falls back
    // to the faulting 4 KiB page when part of it is already there.
    if (arenaKind_ == ArenaKind::uffd_real) {
        constexpr uint64_t kOsPageBytes = 4096;
        for (uint64_t o = 0; o < size; o += kOsPageBytes) {
            volatile uint8_t byte = base_[o];
            (void)byte;
        }
    }
    uint64_t off = 0;
    while (off < size) {
        ssize_t n =
            pwrite(fd, base_ + off, size_t(size - off), off_t(off));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return errResource("snapshot pwrite failed");
        off += uint64_t(n);
    }
    memMetrics().snapshotCaptures.add();
    return snap;
}

Status
LinearMemory::adoptSnapshot(std::shared_ptr<MemorySnapshot> snap)
{
    if (snap == nullptr)
        return errInvalid("null snapshot");
    if (config_.shared)
        return errUnsupported("shared memories cannot adopt a template");
    if (arenaKind_ == ArenaKind::uffd_emu)
        return errUnsupported("uffd emulation cannot adopt a template");
    uint64_t tmpl = snap->sizeBytes();
    if (tmpl == 0 || tmpl > reserveBytes_ ||
        tmpl > uint64_t(maxPages_) * wasm::kPageSize) {
        return errInvalid("template does not fit this memory");
    }
    std::lock_guard<std::mutex> lock(growMutex_);
    // One MAP_FIXED | MAP_PRIVATE mapping of the template file replaces
    // the anonymous pages of [0, tmpl) in place. For uffd_real the kernel
    // splits the VMA and drops the MISSING registration on exactly the
    // replaced range — intended: every template byte is below the new
    // bounds word and must never fault.
    void* p = mmap(base_, size_t(tmpl), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_FIXED | MAP_NORESERVE, snap->fd(), 0);
    if (p == MAP_FAILED)
        return errResource("template mmap failed");
    memMetrics().mmapCalls.add();
    // If this memory had grown past the template before adopting it,
    // bring the tail back to the freshly-restored contract.
    uint64_t high = highWaterBytes_;
    if (high > tmpl) {
        if (arenaKind_ == ArenaKind::guard &&
            mprotect(base_ + tmpl, high - tmpl, PROT_NONE) != 0) {
            return errResource("template re-protect failed");
        }
        if (madvise(base_ + tmpl, high - tmpl, MADV_DONTNEED) != 0)
            return errResource("template madvise failed");
    }
    if (arena_ != nullptr)
        arena_->bounds.store(tmpl, std::memory_order_release);
    sizeBytes_.store(tmpl, std::memory_order_release);
    highWaterBytes_ = tmpl;
    snapshot_ = std::move(snap);
    memMetrics().snapshotAdopts.add();
    return Status::ok();
}

Status
LinearMemory::restoreFromSnapshot(bool* grew_past_template)
{
    LNB_TRACE_SCOPE("mem.restore");
    if (grew_past_template != nullptr)
        *grew_past_template = false;
    if (snapshot_ == nullptr)
        return errInvalid("no template adopted");
    obs::ScopedLatency latency(memMetrics().restoreLatency);
    memMetrics().restoreCalls.add();
    std::lock_guard<std::mutex> lock(growMutex_);
    uint64_t tmpl = snapshot_->sizeBytes();
    uint64_t high = highWaterBytes_;
    uint64_t syscalls = 1;

    // Revert every page dirtied since the last restore: MADV_DONTNEED on
    // a MAP_PRIVATE file-backed mapping drops the CoW copies, so the next
    // access reads the template again. Cost scales with dirtied pages,
    // not the template size — this is the whole point of the protocol.
    if (madvise(base_, size_t(tmpl), MADV_DONTNEED) != 0)
        return errResource("restore madvise failed");

    if (high > tmpl) {
        // The instance grew past the template; the extra range is
        // anonymous memory that must read as zero (and, for guard, trap)
        // after restore. Callers surface this as rt.snapshot_invalidations.
        if (grew_past_template != nullptr)
            *grew_past_template = true;
        if (arenaKind_ == ArenaKind::guard) {
            if (mprotect(base_ + tmpl, high - tmpl, PROT_NONE) != 0)
                return errResource("restore re-protect failed");
            syscalls++;
        }
        if (madvise(base_ + tmpl, high - tmpl, MADV_DONTNEED) != 0)
            return errResource("restore madvise failed");
        syscalls++;
    }
    // clamp redirects out-of-bounds stores into the red-zone page past
    // the max size; re-zero it so a recycled instance cannot observe a
    // predecessor's clamped stores. (Under `none`, residue elsewhere in
    // the flat reservation is explicitly out of contract — the absence
    // of isolation is that strategy's defining property.)
    if (config_.strategy == BoundsStrategy::clamp) {
        if (madvise(base_ + clampOffset_, wasm::kPageSize,
                    MADV_DONTNEED) != 0) {
            return errResource("restore red-zone madvise failed");
        }
        syscalls++;
    }

    if (arena_ != nullptr)
        arena_->bounds.store(tmpl, std::memory_order_release);
    sizeBytes_.store(tmpl, std::memory_order_release);
    highWaterBytes_ = tmpl;
    memMetrics().resetSyscalls.add(syscalls);
    return Status::ok();
}

Status
LinearMemory::initData(uint32_t offset, const uint8_t* data, size_t size)
{
    if (uint64_t(offset) + size > sizeBytes())
        return errInvalid("data segment out of bounds");
    // For uffd strategies this touches missing pages; the fault handler
    // populates them because the range is below bounds.
    std::memcpy(base_ + offset, data, size);
    return Status::ok();
}

uint64_t
LinearMemory::faultsHandled() const
{
    return arena_ ? arena_->faultsHandled.load(std::memory_order_relaxed)
                  : 0;
}

uint64_t
LinearMemory::faultsTrapped() const
{
    return arena_ ? arena_->faultsTrapped.load(std::memory_order_relaxed)
                  : 0;
}

} // namespace lnb::mem
