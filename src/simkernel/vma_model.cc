#include "simkernel/vma_model.h"

#include <cassert>
#include <cstdio>

namespace lnb::simk {

namespace {

bool
aligned(uint64_t v)
{
    return (v & (VmaTree::kPage - 1)) == 0;
}

} // namespace

VmaOpStats
VmaTree::map(uint64_t addr, uint64_t len, VmaProt prot)
{
    assert(aligned(addr) && aligned(len) && len > 0);
    VmaOpStats stats;

    // Find the insertion point and check for overlap.
    auto next = vmas_.lower_bound(addr);
    if (next != vmas_.begin()) {
        stats.vmasVisited++;
        if (std::prev(next)->second.end > addr)
            stats.refused = true;
    }
    if (next != vmas_.end()) {
        stats.vmasVisited++;
        if (next->first < addr + len)
            stats.refused = true;
    }
    if (stats.refused)
        return stats;
    stats.pagesAffected = len / kPage;
    vmas_[addr] = Vma{addr + len, prot};
    mergeRange(addr, addr + len, stats);
    return stats;
}

VmaOpStats
VmaTree::unmap(uint64_t addr, uint64_t len)
{
    assert(aligned(addr) && aligned(len) && len > 0);
    VmaOpStats stats;
    splitAt(addr, stats);
    splitAt(addr + len, stats);

    auto it = vmas_.lower_bound(addr);
    while (it != vmas_.end() && it->first < addr + len) {
        stats.vmasVisited++;
        stats.pagesAffected += (it->second.end - it->first) / kPage;
        it = vmas_.erase(it);
    }
    return stats;
}

VmaOpStats
VmaTree::protect(uint64_t addr, uint64_t len, VmaProt prot)
{
    assert(aligned(addr) && aligned(len) && len > 0);
    VmaOpStats stats;
    stats.pagesAffected = len / kPage;

    // mprotect splits the VMAs at the range boundaries...
    splitAt(addr, stats);
    splitAt(addr + len, stats);

    // ...updates every VMA inside the range...
    auto it = vmas_.lower_bound(addr);
    while (it != vmas_.end() && it->first < addr + len) {
        stats.vmasVisited++;
        assert(it->second.end <= addr + len);
        it->second.prot = prot;
        ++it;
    }

    // ...and merges compatible neighbours back together.
    mergeRange(addr, addr + len, stats);
    return stats;
}

VmaProt
VmaTree::protAt(uint64_t addr) const
{
    auto it = vmas_.upper_bound(addr);
    if (it == vmas_.begin())
        return prot_none;
    --it;
    if (addr < it->second.end)
        return it->second.prot;
    return prot_none;
}

uint64_t
VmaTree::mappedBytes() const
{
    uint64_t total = 0;
    for (const auto& [start, vma] : vmas_)
        total += vma.end - start;
    return total;
}

bool
VmaTree::splitAt(uint64_t addr, VmaOpStats& stats)
{
    auto it = vmas_.upper_bound(addr);
    if (it == vmas_.begin())
        return false;
    --it;
    stats.vmasVisited++;
    if (addr <= it->first || addr >= it->second.end)
        return false; // boundary already aligned or unmapped
    Vma tail{it->second.end, it->second.prot};
    it->second.end = addr;
    vmas_[addr] = tail;
    stats.splits++;
    return true;
}

void
VmaTree::mergeRange(uint64_t lo, uint64_t hi, VmaOpStats& stats)
{
    auto it = vmas_.lower_bound(lo);
    if (it != vmas_.begin())
        --it; // the seam at `lo` involves the predecessor
    while (it != vmas_.end() && it->first <= hi) {
        auto next = std::next(it);
        if (next == vmas_.end())
            break;
        if (it->second.end == next->first &&
            it->second.prot == next->second.prot) {
            it->second.end = next->second.end;
            vmas_.erase(next);
            stats.merges++;
        } else {
            ++it;
        }
    }
}

std::string
VmaTree::checkInvariants() const
{
    char buf[160];
    uint64_t prev_end = 0;
    VmaProt prev_prot = prot_none;
    bool have_prev = false;
    for (const auto& [start, vma] : vmas_) {
        if (vma.end <= start) {
            std::snprintf(buf, sizeof buf, "empty VMA at %#lx", start);
            return buf;
        }
        if (!aligned(start) || !aligned(vma.end)) {
            std::snprintf(buf, sizeof buf, "unaligned VMA at %#lx", start);
            return buf;
        }
        if (have_prev && start < prev_end) {
            std::snprintf(buf, sizeof buf, "overlapping VMA at %#lx",
                          start);
            return buf;
        }
        if (have_prev && start == prev_end && vma.prot == prev_prot) {
            std::snprintf(buf, sizeof buf, "unmerged equal-prot VMAs at %#lx",
                          start);
            return buf;
        }
        prev_end = vma.end;
        prev_prot = vma.prot;
        have_prev = true;
    }
    return "";
}

} // namespace lnb::simk
