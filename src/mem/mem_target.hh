/**
 * @file
 * The memory that can be the target of a DTU memory endpoint: the
 * platform's DRAM module, or another PE's scratchpad (used e.g. for
 * application loading, Sec. 4.5.5). Both are one bounds-checked byte
 * array. Two host-side behaviours keep a large memory cheap, and none
 * of them is visible in a byte the simulation reads:
 *
 * - Lazy zeroing: the storage comes from calloc, so a multi-GiB DRAM of
 *   which a run uses a few hundred MiB pays only for the pages it
 *   touches. zero() clears only the pages the store has written; the
 *   others still hold calloc's zeros.
 * - Shared ranges: a range can refer to read-only bytes that the host
 *   already holds (an m3fs image's file contents, which many images and
 *   files have in common). read() into a host buffer copies from them;
 *   read() as Bytes hands out slices of them, and write() of such a
 *   slice makes a range of its own, so a file copied as Bytes (tar)
 *   stays a reference and never pages in its destination. A write or
 *   zero over part of a range cuts that part out and leaves the rest a
 *   reference; only a raw pointer into a range copies the bytes it
 *   covers into the store. A directory of one word per 4 KiB page, also
 *   from calloc, names the first range on the page, so finding the
 *   ranges of an access looks at its own pages only.
 *
 * copy() keeps both: it copies only the pages its source has written
 * and re-adds the source's ranges as ranges, so copying a built m3fs
 * image costs its metadata, not its size.
 */

#ifndef M3_MEM_MEM_TARGET_HH
#define M3_MEM_MEM_TARGET_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "base/bytes.hh"
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
          alloc(static_cast<uint8_t *>(std::calloc(bytes + PAGE, 1))),
          data(alloc.get() + (PAGE - reinterpret_cast<uintptr_t>(alloc.get()) %
                                         PAGE) % PAGE),
          pages((bytes + PAGE - 1) / PAGE),
          dir(static_cast<uint32_t *>(std::calloc(pages, sizeof(uint32_t))))
    {
        if (!alloc || !dir)
            throw std::bad_alloc();
    }

    /** Capacity in bytes. */
    size_t size() const { return bytes; }

    /** Copy @p len bytes at @p off into @p dst. Bounds-checked. */
    void
    read(goff_t off, void *dst, size_t len) const
    {
        uint8_t *out = static_cast<uint8_t *>(dst);
        pieces(
            off, len,
            [&](goff_t at, size_t n) {
                std::memcpy(out + (at - off), data + at, n);
            },
            [&](goff_t at, const Range &g, size_t n) {
                std::memcpy(out + (at - off),
                            g.src->data() + g.srcOff + (at - g.start), n);
            });
    }

    /**
     * The @p len bytes at @p off. Bounds-checked. The bytes of shared
     * ranges are slices of their shared bytes, those the store holds
     * are copied.
     */
    Bytes
    read(goff_t off, size_t len)
    {
        Bytes b;
        pieces(
            off, len,
            [&](goff_t at, size_t n) {
                b += Bytes::copyOf(data + at, n);
            },
            [&](goff_t at, const Range &g, size_t n) {
                b += Bytes(g.src, g.srcOff + (at - g.start), n);
            });
        return b;
    }

    /** Copy @p len bytes from @p src to @p off. Bounds-checked. */
    void
    write(goff_t off, const void *src, size_t len)
    {
        uint8_t *dst = at(off, len);
        if (len == 0)
            return;
        cut(off, len);
        std::memcpy(dst, src, len);
        markWritten(off, len);
    }

    /**
     * Let the bytes at @p off read as @p src. Bounds-checked. A slice of
     * shared bytes becomes a shared range (continuing the range before
     * it if that one ends in its source just where the slice begins);
     * a copied slice is copied into the store.
     */
    void
    write(goff_t off, const Bytes &src)
    {
        at(off, src.size());
        if (src.empty())
            return;
        cut(off, src.size());
        for (const Bytes::Slice &s : src.slices()) {
            if (s.copied) {
                std::memcpy(data + off, s.data(), s.len);
                markWritten(off, s.len);
            } else {
                addRange(off, s.src, s.off, s.len);
            }
            off += s.len;
        }
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
        writtenSpans(off, len, [&](goff_t lo, goff_t hi) {
            std::memset(data + lo, 0, hi - lo);
        });
    }

    /**
     * Let the @p len bytes at @p off read as @p src[srcOff, srcOff+len)
     * without copying them: the memory keeps a reference to @p src,
     * whose bytes must not change while it does. Bounds-checked on both
     * sides.
     */
    void
    share(goff_t off, SharedBytes src, size_t srcOff, size_t len)
    {
        if (!src || srcOff > src->size() || len > src->size() - srcOff)
            panic("%s share source out of bounds: %zu + %zu", kind, srcOff,
                  len);
        write(off, Bytes(std::move(src), srcOff, len));
    }

    /**
     * The @p len bytes at @p off, read in place. Bounds-checked. Where no
     * shared range overlaps them this is a pointer into the store, valid
     * until the memory changes; otherwise they are copied into
     * @p scratch, which is returned.
     */
    const uint8_t *
    peek(goff_t off, size_t len, void *scratch) const
    {
        const uint8_t *p = at(off, len);
        if (firstIn(off, len) == NONE)
            return p;
        read(off, scratch, len);
        return static_cast<const uint8_t *>(scratch);
    }

    /**
     * Let the @p len bytes at @p off read as the bytes @p src holds at
     * @p srcOff now. Bounds-checked on both sides; @p src may be this
     * memory, but the two spans must not overlap. Only the pages @p src
     * has written are copied: its shared ranges become ranges here, and
     * its never-written pages stay never-written.
     */
    void
    copy(goff_t off, const MemTarget &src, goff_t srcOff, size_t len)
    {
        src.at(srcOff, len);
        zero(off, len);
        if (len == 0)
            return;
        // Marked once all are found: when src is this memory, the first
        // page of the copy may be the source's last.
        std::vector<std::pair<goff_t, goff_t>> spans;
        src.writtenSpans(srcOff, len, [&](goff_t lo, goff_t hi) {
            spans.emplace_back(lo, hi);
        });
        for (const auto &[lo, hi] : spans) {
            std::memcpy(data + off + (lo - srcOff), src.data + lo, hi - lo);
            markWritten(off + (lo - srcOff), hi - lo);
        }
        // Added as they are found. When src is this memory, a range
        // added may grow the slab under @p g (its fields are read before
        // the call), and may link from or extend the last range before
        // it, which pieces() then sees end at or past its span's end.
        src.pieces(
            srcOff, len, skipStore,
            [&](goff_t at, const Range &g, size_t n) {
                addRange(off + (at - srcOff), g.src,
                         g.srcOff + (at - g.start), n);
            });
    }

    /** Fixed access latency per request, in cycles. */
    Cycles accessLatency() const { return latency; }

    /** Pages of the store that have been written: the part of the
     *  memory the host holds resident. For tests. */
    size_t
    writtenPages() const
    {
        return static_cast<size_t>(
            std::count_if(dir.get(), dir.get() + pages,
                          [](uint32_t w) { return w & WRITTEN; }));
    }

    /** Number of shared ranges. For tests. */
    size_t sharedRanges() const { return live; }

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
        pieces(
            off, len, skipStore,
            [&](goff_t at, const Range &g, size_t n) {
                std::memcpy(data + at,
                            g.src->data() + g.srcOff + (at - g.start), n);
            });
        cut(off, len);
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
        return data + off;
    }

    /** A pieces() visitor of the store's pieces that skips them. */
    static void skipStore(goff_t, size_t) {}

    /** Granularity of the page directory. */
    static constexpr size_t PAGE = 4096;
    /** Directory word bit: the store has written the page. The other
     *  bits hold the index of the first range on the page, plus one. */
    static constexpr uint32_t WRITTEN = 1;
    /** No range. */
    static constexpr uint32_t NONE = ~uint32_t(0);

    /**
     * A range [start, start+len) whose bytes live in a shared buffer.
     * next links to the range after it only if that one starts on this
     * one's last page, so the ranges on one page form a chain from the
     * page's directory word.
     */
    struct Range
    {
        goff_t start;
        size_t len;
        SharedBytes src;
        size_t srcOff;
        uint32_t next;

        goff_t end() const { return start + len; }
        size_t lastPage() const { return (start + len - 1) / PAGE; }
    };

    struct Free
    {
        void operator()(void *p) const { std::free(p); }
    };

    /** The first range on page @p p, or NONE. */
    uint32_t firstOn(size_t p) const { return (dir[p] >> 1) - 1; }

    /** Make @p r (or NONE) the first range on page @p p. The word is
     *  stored only if it changes, so pages stay untouched. */
    void
    setFirst(size_t p, uint32_t r)
    {
        const uint32_t w = ((r + 1) << 1) | (dir[p] & WRITTEN);
        if (dir[p] != w)
            dir[p] = w;
    }

    /** Flag the pages of [off, off+len) as written; @p len > 0. */
    void
    markWritten(goff_t off, size_t len)
    {
        for (size_t p = off / PAGE; p <= (off + len - 1) / PAGE; ++p) {
            if (!(dir[p] & WRITTEN))
                dir[p] |= WRITTEN;
        }
    }

    /** Call @p fn(lo, hi) for each maximal span [lo, hi) of
     *  [off, off+len) on pages the store has written; @p len > 0. */
    template <class Fn>
    void
    writtenSpans(goff_t off, size_t len, Fn &&fn) const
    {
        const goff_t end = off + len;
        const size_t last = (end - 1) / PAGE;
        for (size_t p = off / PAGE; p <= last;) {
            if (!(dir[p] & WRITTEN)) {
                ++p;
                continue;
            }
            size_t q = p + 1;
            while (q <= last && (dir[q] & WRITTEN))
                ++q;
            fn(std::max<goff_t>(off, p * PAGE),
               std::min<goff_t>(end, q * PAGE));
            p = q;
        }
    }

    /** The first range overlapping [off, off+len), or NONE. */
    uint32_t
    firstIn(goff_t off, size_t len) const
    {
        if (live == 0 || len == 0)
            return NONE;
        const goff_t end = off + len;
        // The ranges on off's page come in order; those before off end
        // on that page, and so link to the next one on it.
        for (uint32_t r = firstOn(off / PAGE); r != NONE;
             r = ranges[r].next) {
            if (ranges[r].start >= end)
                return NONE;
            if (ranges[r].end() > off)
                return r;
        }
        // Any range on a later page extends past off.
        for (size_t p = off / PAGE + 1; p <= (end - 1) / PAGE; ++p) {
            if (const uint32_t r = firstOn(p); r != NONE)
                return ranges[r].start < end ? r : NONE;
        }
        return NONE;
    }

    /** The range after @p r, or NONE if that one starts on a page past
     *  both r's last page and @p last. */
    uint32_t
    after(uint32_t r, size_t last) const
    {
        if (ranges[r].next != NONE)
            return ranges[r].next;
        for (size_t p = ranges[r].lastPage() + 1; p <= last; ++p) {
            if (firstOn(p) != NONE)
                return firstOn(p);
        }
        return NONE;
    }

    /** The range whose next link is @p r, or NONE. */
    uint32_t
    linkedTo(uint32_t r) const
    {
        uint32_t x = firstOn(ranges[r].start / PAGE);
        if (x == r)
            return NONE;
        while (ranges[x].next != r)
            x = ranges[x].next;
        return x;
    }

    /** A slot of the slab holding @p g. */
    uint32_t
    newRange(Range g)
    {
        ++live;
        if (freeRange != NONE) {
            const uint32_t r = freeRange;
            freeRange = ranges[r].next;
            ranges[r] = std::move(g);
            return r;
        }
        // Indices plus one, shifted past the WRITTEN bit, fit a word.
        if (ranges.size() >= (NONE >> 1) - 1)
            panic("%s has too many shared ranges", kind);
        ranges.push_back(std::move(g));
        return static_cast<uint32_t>(ranges.size() - 1);
    }

    /** Return the slot of @p r to the slab. */
    void
    dropRange(uint32_t r)
    {
        --live;
        ranges[r].src.reset();
        ranges[r].next = freeRange;
        freeRange = r;
    }

    /**
     * Visit bounds-checked [off, off+len) in order, as the pieces the
     * store holds, store(at, n), and the pieces of shared ranges,
     * shared(at, range, n). Never touches the store under a shared
     * range, which would fault in zero pages.
     */
    template <class Store, class Shared>
    void
    pieces(goff_t off, size_t len, Store &&store, Shared &&shared) const
    {
        at(off, len);
        if (len == 0)
            return;
        const goff_t end = off + len;
        const size_t last = (end - 1) / PAGE;
        goff_t done = off;
        for (uint32_t r = firstIn(off, len); r != NONE && ranges[r].start < end;
             r = after(r, last)) {
            const Range &g = ranges[r];
            if (g.start > done) {
                store(done, g.start - done);
                done = g.start;
            }
            const size_t n = std::min(end, g.end()) - done;
            shared(done, g, n);
            done += n;
        }
        if (done < end)
            store(done, end - done);
    }

    /**
     * Remove [off, off+len) from the shared ranges. The parts of a
     * range outside it stay shared; the store under the cut part keeps
     * whatever it held before.
     */
    void
    cut(goff_t off, size_t len)
    {
        uint32_t r = firstIn(off, len);
        if (r == NONE)
            return;
        const goff_t end = off + len;
        const size_t f = off / PAGE, l = (end - 1) / PAGE;
        const uint32_t first = r;
        // The range before the cut, which may link across it, and the
        // one after it.
        const uint32_t left = ranges[r].start < off ? r : linkedTo(r);
        uint32_t right = NONE;
        for (; r != NONE && ranges[r].start < end; r = right) {
            Range &g = ranges[r];
            const goff_t gEnd = g.end();
            if (gEnd > end && g.start < off) {
                // Both ends stay: the right one takes a new slot and the
                // pages past the cut that named this range.
                Range rest{end, gEnd - end, g.src, g.srcOff + (end - g.start),
                           g.next};
                g.len = off - g.start;
                right = newRange(std::move(rest));
                for (size_t p = l + 1; p <= ranges[right].lastPage(); ++p)
                    setFirst(p, right);
                break;
            }
            if (gEnd > end) {
                g.srcOff += end - g.start;
                g.len = gEnd - end;
                g.start = end;
                right = r;
                break;
            }
            right = after(r, l);
            if (g.start < off)
                g.len = off - g.start;
            else
                dropRange(r);
        }
        if (left != NONE) {
            ranges[left].next = right != NONE && ranges[right].start / PAGE ==
                                                     ranges[left].lastPage()
                                    ? right
                                    : NONE;
        }
        // Only the edge pages can still hold a range. A range before
        // the cut that is first on f stays first.
        const auto startsOn = [&](uint32_t x, size_t p) {
            return x != NONE && ranges[x].start < (p + 1) * PAGE;
        };
        if (firstOn(f) == first) {
            setFirst(f, left == first && off > f * PAGE ? first
                        : startsOn(right, f)            ? right
                                                        : NONE);
        }
        for (size_t p = f + 1; p < l; ++p)
            setFirst(p, NONE);
        if (l != f)
            setFirst(l, startsOn(right, l) ? right : NONE);
    }

    /**
     * Let [off, off+len), which no range overlaps, refer to
     * @p src[srcOff, srcOff+len). A range that ends at @p off and
     * continues in @p src just before @p srcOff grows instead.
     */
    void
    addRange(goff_t off, SharedBytes src, size_t srcOff, size_t len)
    {
        const goff_t end = off + len;
        const size_t f = off / PAGE, l = (end - 1) / PAGE;
        // The last range before off on the page of byte off - 1 (one
        // ending exactly at a page edge lives on the previous page).
        uint32_t before = NONE;
        if (off > 0) {
            for (uint32_t x = firstOn((off - 1) / PAGE);
                 x != NONE && ranges[x].start < off; x = ranges[x].next)
                before = x;
        }
        // The range after, if it starts on the new range's last page.
        uint32_t next = firstOn(l);
        while (next != NONE && ranges[next].start < off)
            next = ranges[next].next;
        if (next != NONE && ranges[next].start / PAGE != l)
            next = NONE;

        uint32_t r;
        if (before != NONE && ranges[before].end() == off &&
            ranges[before].src == src &&
            ranges[before].srcOff + ranges[before].len == srcOff) {
            r = before;
            ranges[r].len += len;
        } else {
            r = newRange(Range{off, len, std::move(src), srcOff, NONE});
            if (before != NONE && ranges[before].lastPage() == f)
                ranges[before].next = r;
        }
        ranges[r].next = next;
        // The range is first on its pages unless one before it shares
        // its first page.
        for (size_t p = f; p <= l; ++p) {
            const uint32_t x = firstOn(p);
            if (x == NONE || ranges[x].start >= off)
                setFirst(p, r);
        }
    }

    size_t bytes;
    Cycles latency;
    const char *kind;
    /** The store: from calloc, with a page to spare so that it can
     *  start on a host page. Each page of the directory is then one
     *  host page, and writing one pages in no neighbour. */
    std::unique_ptr<uint8_t[], Free> alloc;
    uint8_t *data;
    size_t pages;
    /** Per page: the first range on it, and the WRITTEN bit. */
    std::unique_ptr<uint32_t[], Free> dir;
    /** The shared ranges, pairwise disjoint; free slots are chained
     *  through next from freeRange. */
    std::vector<Range> ranges;
    uint32_t freeRange = NONE;
    /** Ranges in use. */
    size_t live = 0;
};

} // namespace m3

#endif // M3_MEM_MEM_TARGET_HH
