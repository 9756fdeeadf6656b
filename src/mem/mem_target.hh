/**
 * @file
 * The memory that can be the target of a DTU memory endpoint: the
 * platform's DRAM module, or another PE's scratchpad (used e.g. for
 * application loading, Sec. 4.5.5). Both are one bounds-checked byte
 * array. Three host-side behaviours keep a large memory cheap to set up,
 * and none of them is visible in a byte the simulation reads:
 *
 * - Lazy zeroing: the storage comes from calloc, so a multi-GiB DRAM of
 *   which a run uses a few hundred MiB pays only for the pages it
 *   touches.
 * - Shared ranges: share() lets a range refer to read-only bytes that
 *   the host already holds (an m3fs image's file contents, which many
 *   images and files have in common). Reads copy from those bytes; the
 *   first write, zero or raw pointer over a range copies it in
 *   (copy-on-write), so the store never pages in memory for contents
 *   nobody modifies.
 * - Deferred huge-page hint: adviseHugePages() backs the untouched
 *   interior with huge pages. The owner calls it once the sparse setup
 *   writes are done, so that those do not fault in whole huge pages.
 */

#ifndef M3_MEM_MEM_TARGET_HH
#define M3_MEM_MEM_TARGET_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include <sys/mman.h>

#include "base/logging.hh"
#include "base/types.hh"

namespace m3
{

/**
 * A byte-addressable memory reachable over the NoC, zeroed at
 * construction. Data access is immediate (functional); timing is
 * composed by the DTU from the NoC transfer time plus this memory's
 * accessLatency().
 */
class MemTarget
{
  public:
    /**
     * @param bytes capacity
     * @param latency fixed access latency per request, in cycles
     * @param kind the memory's name in bounds panics ("DRAM", "SPM")
     */
    MemTarget(size_t bytes, Cycles latency, const char *kind)
        : bytes(bytes), latency(latency), kind(kind),
          data(static_cast<uint8_t *>(std::calloc(bytes, 1)))
    {
        if (!data)
            throw std::bad_alloc();
    }

    /** Capacity in bytes. */
    size_t size() const { return bytes; }

    /** Copy @p len bytes at @p off into @p dst. Bounds-checked. */
    void
    read(goff_t off, void *dst, size_t len)
    {
        const uint8_t *src = at(off, len);
        if (mayShare(off, len))
            readShared(off, static_cast<uint8_t *>(dst), len);
        else
            std::memcpy(dst, src, len);
    }

    /** Copy @p len bytes from @p src to @p off. Bounds-checked. */
    void
    write(goff_t off, const void *src, size_t len)
    {
        std::memcpy(own(off, len), src, len);
    }

    /** Set @p len bytes at @p off to zero. */
    void
    zero(goff_t off, size_t len)
    {
        std::memset(own(off, len), 0, len);
    }

    /**
     * Let the @p len bytes at @p off read as @p src[srcOff, srcOff+len)
     * without copying them: the memory keeps a reference to @p src,
     * whose bytes must not change while it does. Any shared range
     * already overlapping the target is copied in first, so the bytes
     * around it keep their values. Bounds-checked on both sides.
     */
    void
    share(goff_t off, SharedBytes src, size_t srcOff, size_t len)
    {
        at(off, len);
        if (!src || srcOff > src->size() || len > src->size() - srcOff)
            panic("%s share source out of bounds: %zu + %zu", kind, srcOff,
                  len);
        if (len == 0)
            return;
        copyIn(off, len);
        if (pages.empty())
            pages.resize((bytes + FLAG_PAGE - 1) / FLAG_PAGE);
        for (size_t p = off / FLAG_PAGE; p <= (off + len - 1) / FLAG_PAGE;
             ++p)
            pages[p] = 1;
        shared.emplace(off, Shared{len, std::move(src), srcOff});
    }

    /**
     * Back the 2 MiB-aligned interior with huge pages from now on, so
     * that first touch faults once per 2 MiB instead of per 4 KiB. A
     * hint only. Pages already touched keep their size: call it after
     * sparse setup writes (an image's metadata), or each of them would
     * fault in a whole huge page.
     */
    void
    adviseHugePages()
    {
#ifdef MADV_HUGEPAGE
        constexpr uintptr_t huge = uintptr_t{2} << 20;
        uintptr_t lo = (reinterpret_cast<uintptr_t>(data.get()) + huge - 1) &
                       ~(huge - 1);
        uintptr_t hi = (reinterpret_cast<uintptr_t>(data.get()) + bytes) &
                       ~(huge - 1);
        if (lo < hi)
            madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_HUGEPAGE);
#endif
    }

    /** Fixed access latency per request, in cycles. */
    Cycles accessLatency() const { return latency; }

  protected:
    /**
     * Bounds-checked pointer to @p len bytes at @p off that the store
     * holds itself: every shared range they overlap is copied in first.
     */
    uint8_t *
    own(goff_t off, size_t len)
    {
        uint8_t *p = at(off, len);
        if (mayShare(off, len))
            copyIn(off, len);
        return p;
    }

  private:
    /** Bounds-checked pointer to @p len bytes at @p off. */
    uint8_t *
    at(goff_t off, size_t len) const
    {
        if (off > bytes || len > bytes - off)
            panic("%s access out of bounds: %llu + %zu > %zu", kind,
                  static_cast<unsigned long long>(off), len, bytes);
        return data.get() + off;
    }

    /** Granularity of the "may hold shared bytes" flags. */
    static constexpr size_t FLAG_PAGE = 4096;

    /** A range whose bytes live in a shared buffer, keyed by its start. */
    struct Shared
    {
        size_t len;
        SharedBytes src;
        size_t srcOff;
    };

    struct Free
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };

    /** Whether [off, off+len) lies on a page that may hold shared bytes. */
    bool
    mayShare(goff_t off, size_t len) const
    {
        if (pages.empty() || len == 0)
            return false;
        for (size_t p = off / FLAG_PAGE; p <= (off + len - 1) / FLAG_PAGE;
             ++p) {
            if (pages[p])
                return true;
        }
        return false;
    }

    /** First shared range that ends after @p off. */
    std::map<goff_t, Shared>::iterator
    firstOverlap(goff_t off)
    {
        auto it = shared.upper_bound(off);
        if (it != shared.begin()) {
            auto prev = std::prev(it);
            if (prev->first + prev->second.len > off)
                return prev;
        }
        return it;
    }

    /** read() over pages with shared ranges: never touches the store
     *  under a shared range, which would fault in zero pages. */
    void
    readShared(goff_t off, uint8_t *dst, size_t len)
    {
        size_t done = 0;
        for (auto it = firstOverlap(off);
             it != shared.end() && it->first < off + len; ++it) {
            const Shared &s = it->second;
            if (it->first > off + done) {
                const size_t gap = it->first - (off + done);
                std::memcpy(dst + done, data.get() + off + done, gap);
                done += gap;
            }
            const size_t into = off + done - it->first;
            const size_t n = std::min(len - done, s.len - into);
            std::memcpy(dst + done, s.src->data() + s.srcOff + into, n);
            done += n;
        }
        std::memcpy(dst + done, data.get() + off + done, len - done);
    }

    /** Copy every shared range overlapping [off, off+len) into the
     *  store and drop it. */
    void
    copyIn(goff_t off, size_t len)
    {
        const goff_t end = off + len;
        auto it = firstOverlap(off);
        while (it != shared.end() && it->first < end) {
            const goff_t start = it->first;
            const Shared &s = it->second;
            std::memcpy(data.get() + start, s.src->data() + s.srcOff, s.len);
            const goff_t rangeEnd = start + s.len;
            it = shared.erase(it);
            clearFlags(start, rangeEnd);
        }
    }

    /**
     * Clear the flags of the pages of the dropped range [start, end).
     * Ranges never overlap, so only its two edge pages can still hold
     * another range.
     */
    void
    clearFlags(goff_t start, goff_t end)
    {
        const size_t first = start / FLAG_PAGE;
        const size_t lastPage = (end - 1) / FLAG_PAGE;
        for (size_t p = first; p <= lastPage; ++p)
            pages[p] = 0;
        for (size_t p : {first, lastPage}) {
            const goff_t lo = p * FLAG_PAGE;
            auto it = firstOverlap(lo);
            if (it != shared.end() && it->first < lo + FLAG_PAGE)
                pages[p] = 1;
        }
    }

    size_t bytes;
    Cycles latency;
    const char *kind;
    std::unique_ptr<uint8_t[], Free> data;
    /** Shared ranges by start offset; pairwise disjoint. */
    std::map<goff_t, Shared> shared;
    /** One flag per page: set if a shared range may overlap it. Empty
     *  until the first share(), so memories without any stay on the
     *  plain load-and-memcpy path. */
    std::vector<uint8_t> pages;
};

} // namespace m3

#endif // M3_MEM_MEM_TARGET_HH
