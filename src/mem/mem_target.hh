/**
 * @file
 * The memory that can be the target of a DTU memory endpoint: the
 * platform's DRAM module, or another PE's scratchpad (used e.g. for
 * application loading, Sec. 4.5.5). Both are one bounds-checked byte
 * array. Three host-side behaviours keep a large memory cheap, and none
 * of them is visible in a byte the simulation reads:
 *
 * - Lazy zeroing: the storage comes from calloc, so a multi-GiB DRAM of
 *   which a run uses a few hundred MiB pays only for the pages it
 *   touches. zero() clears only the pages the store has written; the
 *   others still hold calloc's zeros.
 * - Shared ranges: share() lets a range refer to read-only bytes that
 *   the host already holds (an m3fs image's file contents, which many
 *   images and files have in common). Reads copy from those bytes; a
 *   write or zero over part of a range cuts that part out and leaves
 *   the rest a reference; only a raw pointer into a range copies the
 *   bytes it covers into the store.
 * - Copies by reference: read() remembers, per destination buffer, the
 *   shared bytes it was served from. A later write() from that buffer
 *   whose bytes still equal them (memcmp) becomes a shared range instead
 *   of a copy, so a file copied through a host buffer (tar) stays a
 *   reference and never pages in its destination.
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
#include <unordered_map>
#include <vector>

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
          data(static_cast<uint8_t *>(std::calloc(bytes, 1))),
          pages((bytes + PAGE - 1) / PAGE)
    {
        if (!data)
            throw std::bad_alloc();
    }

    /** Capacity in bytes. */
    size_t size() const { return bytes; }

    /**
     * Copy @p len bytes at @p off into @p dst. Bounds-checked. A read
     * served wholly from one shared range is remembered for @p dst (see
     * write()).
     */
    void
    read(goff_t off, void *dst, size_t len)
    {
        const uint8_t *src = at(off, len);
        if (!mayShare(off, len)) {
            std::memcpy(dst, src, len);
            return;
        }
        auto it = firstOverlap(off);
        if (it != shared.end() && it->first <= off &&
            it->first + it->second.len >= off + len) {
            const Shared &s = it->second;
            const size_t srcOff = s.srcOff + (off - it->first);
            std::memcpy(dst, s.src->data() + srcOff, len);
            remember(dst, s.src, srcOff, len);
            return;
        }
        readShared(off, static_cast<uint8_t *>(dst), len);
    }

    /**
     * Copy @p len bytes from @p src to @p off. Bounds-checked. If @p src
     * was the destination of a read() from shared bytes and still holds
     * them, the bytes at @p off become a reference to those shared
     * bytes instead of a copy.
     */
    void
    write(goff_t off, const void *src, size_t len)
    {
        uint8_t *dst = at(off, len);
        if (len == 0)
            return;
        if (const Ref *r = recalled(src, len)) {
            const SharedBytes from = r->src;
            cut(off, len);
            addRange(off, from, r->srcOff, len);
            return;
        }
        cut(off, len);
        std::memcpy(dst, src, len);
        markWritten(off, len);
    }

    /**
     * Set @p len bytes at @p off to zero. Shared ranges inside are
     * dropped, and only pages the store has written are cleared.
     */
    void
    zero(goff_t off, size_t len)
    {
        at(off, len);
        if (len == 0)
            return;
        cut(off, len);
        const goff_t end = off + len;
        for (size_t p = off / PAGE; p <= (end - 1) / PAGE;) {
            if (!(pages[p] & WRITTEN)) {
                ++p;
                continue;
            }
            size_t q = p + 1;
            while (q <= (end - 1) / PAGE && (pages[q] & WRITTEN))
                ++q;
            const goff_t lo = std::max<goff_t>(off, p * PAGE);
            const goff_t hi = std::min<goff_t>(end, q * PAGE);
            std::memset(data.get() + lo, 0, hi - lo);
            p = q;
        }
    }

    /**
     * Let the @p len bytes at @p off read as @p src[srcOff, srcOff+len)
     * without copying them: the memory keeps a reference to @p src,
     * whose bytes must not change while it does. Any shared range
     * already overlapping the target is cut out of it, so the bytes
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
        cut(off, len);
        addRange(off, std::move(src), srcOff, len);
    }

    /** Fixed access latency per request, in cycles. */
    Cycles accessLatency() const { return latency; }

    /** Pages of the store that have been written: the part of the
     *  memory the host holds resident. For tests. */
    size_t
    writtenPages() const
    {
        return static_cast<size_t>(
            std::count_if(pages.begin(), pages.end(),
                          [](uint8_t f) { return f & WRITTEN; }));
    }

    /** Number of shared ranges. For tests. */
    size_t sharedRanges() const { return shared.size(); }

  protected:
    /**
     * Bounds-checked pointer to @p len bytes at @p off that the store
     * holds itself, for the caller to read or write: the bytes of every
     * shared range they overlap are copied in first.
     */
    uint8_t *
    own(goff_t off, size_t len)
    {
        uint8_t *p = at(off, len);
        if (len == 0)
            return p;
        if (mayShare(off, len)) {
            copyIn(off, len);
            cut(off, len);
        }
        markWritten(off, len);
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

    /** Granularity of the per-page flags. */
    static constexpr size_t PAGE = 4096;
    /** Page flag: a shared range overlaps the page. */
    static constexpr uint8_t SHARED = 1;
    /** Page flag: the store has written the page. */
    static constexpr uint8_t WRITTEN = 2;
    /** Entries per generation of the read-source table: far above the
     *  number of buffers copying at once (240 on the largest machine). */
    static constexpr size_t REF_GENERATION = 4096;

    /** A range whose bytes live in a shared buffer, keyed by its start. */
    struct Shared
    {
        size_t len;
        SharedBytes src;
        size_t srcOff;
    };

    /** What a read() from one shared range left in its destination. */
    struct Ref
    {
        SharedBytes src;
        size_t srcOff;
        size_t len;
    };

    struct Free
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };

    /** Whether [off, off+len) lies on a page that holds shared bytes. */
    bool
    mayShare(goff_t off, size_t len) const
    {
        if (shared.empty() || len == 0)
            return false;
        for (size_t p = off / PAGE; p <= (off + len - 1) / PAGE; ++p) {
            if (pages[p] & SHARED)
                return true;
        }
        return false;
    }

    /** Flag the pages of [off, off+len) as written; @p len > 0. */
    void
    markWritten(goff_t off, size_t len)
    {
        for (size_t p = off / PAGE; p <= (off + len - 1) / PAGE; ++p)
            pages[p] |= WRITTEN;
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

    /** Whether a shared range overlaps page @p p. */
    bool
    pageShared(size_t p)
    {
        auto it = firstOverlap(p * PAGE);
        return it != shared.end() && it->first < (p + 1) * PAGE;
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

    /** Copy the shared bytes of [off, off+len) into the store. */
    void
    copyIn(goff_t off, size_t len)
    {
        const goff_t end = off + len;
        for (auto it = firstOverlap(off);
             it != shared.end() && it->first < end; ++it) {
            const Shared &s = it->second;
            const goff_t lo = std::max<goff_t>(off, it->first);
            const goff_t hi = std::min<goff_t>(end, it->first + s.len);
            std::memcpy(data.get() + lo,
                        s.src->data() + s.srcOff + (lo - it->first), hi - lo);
        }
    }

    /**
     * Remove [off, off+len) from the shared ranges. The parts of a
     * range outside it stay shared; the store under the cut part keeps
     * whatever it held before.
     */
    void
    cut(goff_t off, size_t len)
    {
        if (!mayShare(off, len))
            return;
        const goff_t end = off + len;
        auto it = firstOverlap(off);
        if (it == shared.end() || it->first >= end)
            return;
        while (it != shared.end() && it->first < end) {
            const goff_t start = it->first;
            const goff_t rangeEnd = start + it->second.len;
            if (rangeEnd > end) {
                Shared &s = it->second;
                shared.emplace_hint(std::next(it), end,
                                    Shared{rangeEnd - end, s.src,
                                           s.srcOff + (end - start)});
            }
            if (start < off) {
                it->second.len = off - start;
                ++it;
            } else {
                it = shared.erase(it);
            }
            if (rangeEnd > end)
                break;
        }
        // Ranges never overlap, so only the two edge pages can still
        // hold one.
        const size_t first = off / PAGE, last = (end - 1) / PAGE;
        for (size_t p = first + 1; p < last; ++p)
            pages[p] &= ~SHARED;
        for (size_t p : {first, last}) {
            if (!pageShared(p))
                pages[p] &= ~SHARED;
        }
    }

    /**
     * Let [off, off+len), which no range overlaps, refer to
     * @p src[srcOff, srcOff+len). A range that ends at @p off and
     * continues in @p src just before @p srcOff grows instead.
     */
    void
    addRange(goff_t off, SharedBytes src, size_t srcOff, size_t len)
    {
        auto next = shared.lower_bound(off);
        auto prev = next == shared.begin() ? shared.end() : std::prev(next);
        if (prev != shared.end() && prev->first + prev->second.len == off &&
            prev->second.src == src &&
            prev->second.srcOff + prev->second.len == srcOff)
            prev->second.len += len;
        else
            shared.emplace_hint(next, off, Shared{len, std::move(src),
                                                  srcOff});
        for (size_t p = off / PAGE; p <= (off + len - 1) / PAGE; ++p)
            pages[p] |= SHARED;
    }

    /** Record that @p dst now holds @p src[srcOff, srcOff+len). */
    void
    remember(const void *dst, const SharedBytes &src, size_t srcOff,
             size_t len)
    {
        if (refs.size() >= REF_GENERATION) {
            oldRefs = std::move(refs);
            refs.clear();
        }
        refs.insert_or_assign(dst, Ref{src, srcOff, len});
    }

    /** The shared bytes that the @p len bytes at @p src still equal, or
     *  nullptr: the memcmp makes a stale entry harmless. */
    const Ref *
    recalled(const void *src, size_t len) const
    {
        // The current generation is empty only until the first remember().
        if (refs.empty())
            return nullptr;
        for (const auto *table : {&refs, &oldRefs}) {
            auto it = table->find(src);
            if (it == table->end())
                continue;
            const Ref &r = it->second;
            if (r.len >= len &&
                std::memcmp(src, r.src->data() + r.srcOff, len) == 0)
                return &r;
            return nullptr;
        }
        return nullptr;
    }

    size_t bytes;
    Cycles latency;
    const char *kind;
    std::unique_ptr<uint8_t[], Free> data;
    /** Shared ranges by start offset; pairwise disjoint. */
    std::map<goff_t, Shared> shared;
    /** SHARED | WRITTEN flags, one byte per page. */
    std::vector<uint8_t> pages;
    /**
     * Destination buffer -> the shared bytes the last read() from one
     * range copied into it. Two generations of at most REF_GENERATION
     * entries each: when the current one fills it becomes the old one,
     * so the newest entries always survive.
     */
    std::unordered_map<const void *, Ref> refs, oldRefs;
};

} // namespace m3

#endif // M3_MEM_MEM_TARGET_HH
