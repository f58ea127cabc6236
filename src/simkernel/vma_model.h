/**
 * @file
 * A model of the Linux per-process virtual memory area (VMA) structure.
 *
 * Linux keeps one ordered tree of VMAs per process, protected by a single
 * mmap lock that mprotect(2) takes exclusively (paper §2.3, ref [13]).
 * This model reproduces the data-structure work those syscalls do — range
 * lookup, VMA splitting on partial-range protection changes, merging of
 * adjacent compatible VMAs — and reports operation counts that the
 * contention simulator turns into simulated time.
 */
#ifndef LNB_SIMKERNEL_VMA_MODEL_H
#define LNB_SIMKERNEL_VMA_MODEL_H

#include <cstdint>
#include <map>
#include <string>

namespace lnb::simk {

/** Protection bits (subset of PROT_*). */
enum VmaProt : uint8_t {
    prot_none = 0,
    prot_read = 1,
    prot_write = 2,
    prot_rw = 3,
};

/** Work performed by one VMA operation, for the cost model. */
struct VmaOpStats
{
    uint32_t vmasVisited = 0;
    uint32_t splits = 0;
    uint32_t merges = 0;
    uint64_t pagesAffected = 0;
    /** A map was refused because its range overlaps a mapped VMA (how
     * mmap with MAP_FIXED_NOREPLACE fails, with EEXIST); the tree is
     * unchanged. */
    bool refused = false;

    VmaOpStats&
    operator+=(const VmaOpStats& other)
    {
        vmasVisited += other.vmasVisited;
        splits += other.splits;
        merges += other.merges;
        pagesAffected += other.pagesAffected;
        refused = refused || other.refused;
        return *this;
    }
};

/**
 * The VMA tree of one simulated process. Addresses and lengths are in
 * bytes and must be page (4 KiB) aligned. Not thread-safe by design: the
 * caller serializes access exactly like the kernel's mmap lock does (that
 * serialization is the phenomenon under study).
 */
class VmaTree
{
  public:
    static constexpr uint64_t kPage = 4096;

    /** Map [addr, addr+len) with @p prot. A range that overlaps a
     * mapped VMA is refused (VmaOpStats::refused) in every build and
     * leaves the tree unchanged. */
    VmaOpStats map(uint64_t addr, uint64_t len, VmaProt prot);

    /** Unmap any part of [addr, addr+len), splitting partial overlaps. */
    VmaOpStats unmap(uint64_t addr, uint64_t len);

    /**
     * Change protection of [addr, addr+len). Splits boundary VMAs and
     * merges the result with compatible neighbours — the work mprotect(2)
     * does under the exclusive mmap lock.
     */
    VmaOpStats protect(uint64_t addr, uint64_t len, VmaProt prot);

    /** Protection at @p addr; prot_none if unmapped. */
    VmaProt protAt(uint64_t addr) const;

    /** Number of VMAs currently in the tree. */
    size_t vmaCount() const { return vmas_.size(); }

    /** Total mapped bytes. */
    uint64_t mappedBytes() const;

    /**
     * Check structural invariants (sortedness, non-overlap, non-empty,
     * no adjacent same-prot VMAs left unmerged). Returns an empty string
     * when consistent, else a description of the violation.
     */
    std::string checkInvariants() const;

  private:
    struct Vma
    {
        uint64_t end = 0;
        VmaProt prot = prot_none;
    };

    /** Split the VMA containing @p addr at @p addr, if any. */
    bool splitAt(uint64_t addr, VmaOpStats& stats);
    /** Merge compatible adjacent VMAs whose seams lie in [lo, hi]. */
    void mergeRange(uint64_t lo, uint64_t hi, VmaOpStats& stats);

    /** start -> {end, prot}; ordered, non-overlapping. */
    std::map<uint64_t, Vma> vmas_;
};

} // namespace lnb::simk

#endif // LNB_SIMKERNEL_VMA_MODEL_H
