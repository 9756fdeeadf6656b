/**
 * @file
 * Unit tests for the simulated memories: DRAM and SPM start zeroed, the
 * host pays for DRAM pages only on first touch and zero() leaves
 * untouched pages alone, shared ranges read as their source bytes and
 * are cut or copied in on modification, copies of shared bytes as Bytes
 * stay references, every access matches a plain byte
 * vector and the shared ranges match a reference bookkeeping, and
 * out-of-bounds accesses panic with the memory's name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include <unistd.h>

#include "base/bytes.hh"
#include "mem/dram.hh"
#include "mem/spm.hh"

namespace m3
{
namespace
{

/** Resident set of this process in bytes, or 0 where unknown. */
size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    size_t total = 0, resident = 0;
    if (!(statm >> total >> resident))
        return 0;
    return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST(Mem, DramIsLazilyZeroed)
{
    const size_t rss0 = residentBytes();
    Dram dram(1024 * MiB, 20);
    const size_t rss1 = residentBytes();
#ifdef __linux__
    ASSERT_GT(rss0, 0u);
    // An eager memset of the capacity would make all 1 GiB resident.
    EXPECT_LT(rss1 - rss0, 64 * MiB);
#endif

    for (goff_t off : {goff_t{0}, goff_t{512 * MiB}, goff_t{1024 * MiB - 1}})
        EXPECT_EQ(*dram.inspect(off, 1), 0) << "offset " << off;

    // inspect() hands out a pointer, so its page counts as written.
    EXPECT_EQ(dram.writtenPages(), 3u);

    const uint8_t bytes[] = {1, 2, 3, 4, 5, 6, 7, 8};
    dram.write(512 * MiB - 4, bytes, sizeof(bytes));
    EXPECT_EQ(*dram.inspect(512 * MiB, 1), 5);
    EXPECT_EQ(dram.writtenPages(), 4u);
    dram.zero(512 * MiB - 4, sizeof(bytes));
    uint8_t back[sizeof(bytes)] = {0xff};
    dram.read(512 * MiB - 4, back, sizeof(back));
    for (uint8_t b : back)
        EXPECT_EQ(b, 0);

    // A zero over written and never-written pages clears the written
    // ones and leaves the rest alone, so they stay non-resident.
    dram.write(600 * MiB + 5, bytes, sizeof(bytes));
    const size_t rss2 = residentBytes();
    dram.zero(256 * MiB, 512 * MiB);
    dram.read(600 * MiB + 5, back, sizeof(back));
    for (uint8_t b : back)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(*dram.inspect(512 * MiB, 1), 0);
    EXPECT_EQ(dram.writtenPages(), 5u);
#ifdef __linux__
    EXPECT_LT(residentBytes() - rss2, 64 * MiB);
#endif
}

/** @p len bytes counting up from @p first, as shared source bytes. */
SharedBytes
ramp(size_t len, uint8_t first)
{
    std::vector<uint8_t> v(len);
    for (size_t i = 0; i < len; ++i)
        v[i] = static_cast<uint8_t>(first + i);
    return std::make_shared<const std::vector<uint8_t>>(std::move(v));
}

/** The whole memory, as read() returns it. */
std::vector<uint8_t>
contents(MemTarget &mem)
{
    std::vector<uint8_t> out(mem.size());
    mem.read(0, out.data(), out.size());
    return out;
}

TEST(Mem, SharedRangeIsCopyOnWrite)
{
    Dram dram(16 * KiB, 20);
    // A non-zero store, so a read of the store under a shared range
    // would show.
    std::vector<uint8_t> model(dram.size(), 0xaa);
    dram.write(0, model.data(), model.size());

    const SharedBytes a = ramp(6000, 0);
    const SharedBytes b = ramp(300, 100);
    const std::vector<uint8_t> aBefore = *a, bBefore = *b;
    auto share = [&](goff_t off, const SharedBytes &src, size_t srcOff,
                     size_t len) {
        dram.share(off, src, srcOff, len);
        std::copy_n(src->begin() + srcOff, len, model.begin() + off);
    };

    // Gap, shared range across a page boundary, gap, shared, gap.
    share(4000, a, 10, 200);
    share(4300, b, 0, 300);
    std::vector<uint8_t> span(1000);
    dram.read(3900, span.data(), span.size());
    EXPECT_TRUE(std::equal(span.begin(), span.end(), model.begin() + 3900));
    EXPECT_EQ(contents(dram), model);

    // A partial write keeps the rest of the range's bytes.
    const uint8_t junk[4] = {1, 2, 3, 4};
    dram.write(4100, junk, sizeof(junk));
    std::copy_n(junk, sizeof(junk), model.begin() + 4100);
    EXPECT_EQ(contents(dram), model);

    // zero() and inspect() copy in first, too.
    dram.zero(4350, 10);
    std::fill_n(model.begin() + 4350, 10, 0);
    share(8192, a, 1000, 5000);
    EXPECT_EQ(dram.inspect(9000, 16)[0], model[9000]);
    EXPECT_TRUE(std::equal(model.begin() + 8192, model.begin() + 13192,
                           dram.inspect(8192, 5000)));
    EXPECT_EQ(contents(dram), model);

    // A second share over part of an existing range keeps the rest.
    share(1000, a, 0, 2000);
    share(2500, b, 20, 200);
    share(2600, a, 3000, 200);
    EXPECT_EQ(contents(dram), model);

    EXPECT_EQ(*a, aBefore);
    EXPECT_EQ(*b, bBefore);

    // The scratchpad's raw pointer copies in as well.
    Spm spm(4 * KiB);
    spm.share(100, b, 0, 300);
    EXPECT_EQ(spm.ptr(200, 1)[0], (*b)[100]);
    spm.ptr(200, 1)[0] = 0;
    EXPECT_EQ(*b, bBefore);
    uint8_t back = 0xff;
    spm.read(200, &back, 1);
    EXPECT_EQ(back, 0);

    EXPECT_DEATH(dram.share(16 * KiB - 10, a, 0, 20),
                 "DRAM access out of bounds");
    EXPECT_DEATH(spm.share(0, b, 200, 101), "SPM share source out of bounds");
}

TEST(Mem, SharedRangesStayNonResident)
{
    const SharedBytes src = ramp(MiB, 7);
    std::vector<uint8_t> buf(64 * KiB);
    Dram dram(256 * MiB, 20);
    const size_t rss0 = residentBytes();
    for (goff_t off = 0; off < dram.size(); off += MiB)
        dram.share(off, src, 0, MiB);
    bool same = true;
    for (goff_t off = 0; off < dram.size(); off += buf.size()) {
        dram.read(off, buf.data(), buf.size());
        same = same && std::equal(buf.begin(), buf.end(),
                                  src->begin() + off % MiB);
    }
    EXPECT_TRUE(same);
    const size_t rss1 = residentBytes();
#ifdef __linux__
    ASSERT_GT(rss0, 0u);
    // Copying the ranges in, or reading the store under them, would make
    // all 256 MiB resident.
    EXPECT_LT(rss1 - rss0, 16 * MiB);
#endif
}

/** @p len random bytes from @p rng, as shared source bytes. */
SharedBytes
randomBytes(size_t len, std::mt19937_64 &rng)
{
    std::vector<uint8_t> v(len);
    for (size_t i = 0; i < len; i += 8) {
        const uint64_t r = rng();
        std::memcpy(v.data() + i, &r, std::min<size_t>(8, len - i));
    }
    return std::make_shared<const std::vector<uint8_t>>(std::move(v));
}

/**
 * The shared-range bookkeeping MemTarget must reproduce, kept simple: an
 * ordered map of ranges and the written pages. It follows the same rules
 * (cut, coalescing, Bytes slices as references), so its range and page
 * counts must equal the memory's after every step.
 */
class ReferenceRanges
{
  public:
    /** One piece of a Bytes value: shared bytes, or copied ones
     *  (src null). */
    struct Piece
    {
        size_t len;
        SharedBytes src;
        size_t srcOff;
    };
    using Pieces = std::vector<Piece>;

    /** The pieces a Bytes read of [off, off+len) hands out: a slice per
     *  range, a copy per gap. */
    Pieces
    read(goff_t off, size_t len)
    {
        Pieces out;
        const goff_t end = off + len;
        goff_t at = off;
        for (auto it = firstOverlap(off);
             it != shared.end() && it->first < end; ++it) {
            if (it->first > at) {
                out.push_back({it->first - at, nullptr, 0});
                at = it->first;
            }
            const size_t n =
                std::min<goff_t>(end, it->first + it->second.len) - at;
            out.push_back({n, it->second.src,
                           it->second.srcOff + (at - it->first)});
            at += n;
        }
        if (at < end)
            out.push_back({end - at, nullptr, 0});
        return out;
    }

    /** write() of @p len bytes from a host buffer to @p off. */
    void
    write(goff_t off, size_t len)
    {
        if (len == 0)
            return;
        cut(off, len);
        markWritten(off, len);
    }

    /** write() of a Bytes value made of @p pieces to @p off. */
    void
    write(goff_t off, const Pieces &pieces)
    {
        size_t len = 0;
        for (const Piece &p : pieces)
            len += p.len;
        if (len == 0)
            return;
        cut(off, len);
        for (const Piece &p : pieces) {
            if (p.src)
                addRange(off, p.src, p.srcOff, p.len);
            else if (p.len > 0)
                markWritten(off, p.len);
            off += p.len;
        }
    }

    void
    share(goff_t off, const SharedBytes &src, size_t srcOff, size_t len)
    {
        write(off, Pieces{{len, src, srcOff}});
    }

    void
    zero(goff_t off, size_t len)
    {
        if (len > 0)
            cut(off, len);
    }

    /** A raw pointer to [off, off+len) (Spm::ptr, Dram::inspect). */
    void
    own(goff_t off, size_t len)
    {
        write(off, len);
    }

    /**
     * MemTarget::copy() from @p src (maybe this one) at @p srcOff: the
     * span's ranges go, the pages of src's written pages are written,
     * and src's ranges become ranges here.
     */
    void
    copy(goff_t off, ReferenceRanges &src, goff_t srcOff, size_t len)
    {
        if (len == 0)
            return;
        cut(off, len);
        const goff_t end = srcOff + len;
        std::vector<size_t> pages(src.written.lower_bound(srcOff / PAGE),
                                  src.written.upper_bound((end - 1) / PAGE));
        for (size_t p : pages) {
            const goff_t lo = std::max<goff_t>(srcOff, p * PAGE);
            const goff_t hi = std::min<goff_t>(end, (p + 1) * PAGE);
            markWritten(off + (lo - srcOff), hi - lo);
        }
        for (const Piece &p : src.read(srcOff, len)) {
            if (p.src)
                addRange(off, p.src, p.srcOff, p.len);
            off += p.len;
        }
    }

    size_t ranges() const { return shared.size(); }
    size_t writtenPages() const { return written.size(); }

  private:
    static constexpr size_t PAGE = 4096;

    struct Shared
    {
        size_t len;
        SharedBytes src;
        size_t srcOff;
    };

    void
    markWritten(goff_t off, size_t len)
    {
        for (size_t p = off / PAGE; p <= (off + len - 1) / PAGE; ++p)
            written.insert(p);
    }

    /** First range that ends after @p off. */
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

    /** Remove [off, off+len); the parts of a range outside it stay. */
    void
    cut(goff_t off, size_t len)
    {
        const goff_t end = off + len;
        auto it = firstOverlap(off);
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
    }

    /** Add [off, off+len), which no range overlaps; a range that ends
     *  at @p off and continues in @p src just before grows instead. */
    void
    addRange(goff_t off, const SharedBytes &src, size_t srcOff, size_t len)
    {
        if (len == 0)
            return;
        auto next = shared.lower_bound(off);
        auto prev = next == shared.begin() ? shared.end() : std::prev(next);
        if (prev != shared.end() && prev->first + prev->second.len == off &&
            prev->second.src == src &&
            prev->second.srcOff + prev->second.len == srcOff)
            prev->second.len += len;
        else
            shared.emplace_hint(next, off, Shared{len, src, srcOff});
    }

    std::map<goff_t, Shared> shared;
    std::set<size_t> written;
};

/** A Bytes value beside the pieces the reference expects it to hold. */
struct ModelBytes
{
    Bytes bytes;
    ReferenceRanges::Pieces pieces;

    /** The @p len bytes at @p from, of both. */
    ModelBytes
    sub(size_t from, size_t len) const
    {
        ModelBytes out{bytes.sub(from, len), {}};
        for (const ReferenceRanges::Piece &p : pieces) {
            if (from >= p.len) {
                from -= p.len;
                continue;
            }
            const size_t n = std::min(len, p.len - from);
            if (n == 0)
                break;
            out.pieces.push_back(
                {n, p.src, p.src ? p.srcOff + from : 0});
            from = 0;
            len -= n;
        }
        return out;
    }

    ModelBytes &
    operator+=(const ModelBytes &o)
    {
        bytes += o.bytes;
        pieces.insert(pieces.end(), o.pieces.begin(), o.pieces.end());
        return *this;
    }
};

/**
 * A memory beside a plain byte vector and the reference bookkeeping,
 * which every operation also updates: each read, and the whole memory
 * and its range and written-page counts after each step, must match.
 */
class MemModel
{
  public:
    explicit MemModel(MemTarget &mem) : mem(mem), model(mem.size(), 0) {}

    void
    write(goff_t off, const std::vector<uint8_t> &src, size_t len)
    {
        mem.write(off, src.data(), len);
        ref.write(off, len);
        std::copy_n(src.begin(), len, model.begin() + off);
    }

    void
    zero(goff_t off, size_t len)
    {
        mem.zero(off, len);
        ref.zero(off, len);
        std::fill_n(model.begin() + off, len, 0);
    }

    void
    share(goff_t off, const SharedBytes &src, size_t srcOff, size_t len)
    {
        mem.share(off, src, srcOff, len);
        ref.share(off, src, srcOff, len);
        std::copy_n(src->begin() + srcOff, len, model.begin() + off);
    }

    /** read() into @p buf, checked against the model. */
    void
    read(goff_t off, std::vector<uint8_t> &buf, size_t len)
    {
        mem.read(off, buf.data(), len);
        EXPECT_TRUE(std::equal(buf.begin(), buf.begin() + len,
                               model.begin() + off))
            << "read " << off << " + " << len;
    }

    /** read() as Bytes, checked against the model. */
    ModelBytes
    readBytes(goff_t off, size_t len)
    {
        ModelBytes b{mem.read(off, len), ref.read(off, len)};
        EXPECT_EQ(b.bytes.size(), len);
        std::vector<uint8_t> got(len);
        b.bytes.copyTo(got.data());
        EXPECT_TRUE(std::equal(got.begin(), got.end(), model.begin() + off))
            << "read as Bytes " << off << " + " << len;
        return b;
    }

    /** write() of a Bytes value. */
    void
    write(goff_t off, const ModelBytes &b)
    {
        mem.write(off, b.bytes);
        ref.write(off, b.pieces);
        b.bytes.copyTo(model.data() + off);
    }

    /** The raw pointer @p p that @p raw handed out for [off, off+len),
     *  checked against the model. */
    bool
    owned(goff_t off, size_t len, const uint8_t *p)
    {
        ref.own(off, len);
        return std::equal(p, p + len, model.begin() + off);
    }

    /**
     * Copy [from, from+len) to @p to as a gate's read() and write() as
     * Bytes do. With @p flip the program changes one byte in between,
     * so it must hold the bytes itself: they go through @p buf.
     */
    void
    copy(goff_t from, goff_t to, size_t len, std::vector<uint8_t> &buf,
         bool flip)
    {
        ModelBytes b = readBytes(from, len);
        if (!flip) {
            write(to, b);
            return;
        }
        b.bytes.copyTo(buf.data());
        buf[len / 2] ^= 0x5a;
        write(to, buf, len);
    }

    /** MemTarget::copy() of [srcOff, srcOff+len) of @p src's memory
     *  (maybe this one) to @p off. */
    void
    copyFrom(goff_t off, MemModel &src, goff_t srcOff, size_t len)
    {
        mem.copy(off, src.mem, srcOff, len);
        ref.copy(off, src.ref, srcOff, len);
        const std::vector<uint8_t> bytes(src.model.begin() + srcOff,
                                         src.model.begin() + srcOff + len);
        std::copy(bytes.begin(), bytes.end(), model.begin() + off);
    }

    /** Whole-memory comparison. */
    bool matches() { return contents(mem) == model; }

    /** The range and written-page counts equal the reference's. */
    bool
    countsMatch() const
    {
        return mem.sharedRanges() == ref.ranges() &&
               mem.writtenPages() == ref.writtenPages();
    }

    MemTarget &mem;
    std::vector<uint8_t> model;
    ReferenceRanges ref;
};

TEST(Mem, CopiesOfSharedBytesStayReferences)
{
    std::mt19937_64 rng(1);
    const SharedBytes file = randomBytes(64 * KiB, rng);
    Dram dram(1 * MiB, 20);
    MemModel m(dram);
    std::vector<uint8_t> buf(16 * KiB);

    // Read back and write through the same buffer, chunk by chunk: each
    // chunk continues the last one, so one range grows.
    m.share(0, file, 0, file->size());
    m.zero(256 * KiB, 256 * KiB);
    for (goff_t off = 0; off < file->size(); off += 4 * KiB)
        m.copy(off, 256 * KiB + off, 4 * KiB, buf, false);
    EXPECT_EQ(dram.writtenPages(), 0u);
    EXPECT_EQ(dram.sharedRanges(), 2u);
    EXPECT_TRUE(m.matches());

    // Next to a range, not continuing it: a range of its own.
    m.copy(0, 256 * KiB + file->size(), 4 * KiB, buf, false);
    EXPECT_EQ(dram.sharedRanges(), 3u);
    // Onto the end of a range from the wrong source offset: no coalescing.
    m.copy(8 * KiB, 512 * KiB, 4 * KiB, buf, false);
    m.copy(16 * KiB, 516 * KiB, 4 * KiB, buf, false);
    EXPECT_EQ(dram.sharedRanges(), 5u);
    EXPECT_EQ(dram.writtenPages(), 0u);

    // One byte changed in the buffer: a plain copy.
    m.copy(4 * KiB, 600 * KiB, 4 * KiB, buf, true);
    EXPECT_EQ(dram.writtenPages(), 1u);
    EXPECT_EQ(dram.sharedRanges(), 5u);

    // A write longer than the read that filled the buffer is a copy,
    // even where the buffer's next bytes match the source's.
    m.read(0, buf, 4 * KiB);
    std::copy_n(file->begin() + 4 * KiB, 4 * KiB, buf.begin() + 4 * KiB);
    m.write(700 * KiB, buf, 8 * KiB);
    EXPECT_EQ(dram.writtenPages(), 3u);
    EXPECT_EQ(dram.sharedRanges(), 5u);

    // A write at, across and beside a range's edge cuts the range; the
    // parts outside it stay references.
    const goff_t edge = 256 * KiB + file->size();
    std::vector<uint8_t> junk(100, 0xee);
    m.write(edge - 100, junk, 100);
    m.write(edge - 30, junk, 60);
    m.write(edge + 4 * KiB, junk, 10);
    m.write(256 * KiB + 1000, junk, 1);
    EXPECT_TRUE(m.matches());
    EXPECT_EQ(dram.sharedRanges(), 5u + 1);

    // A zero over the middle of a range keeps both ends; one over whole
    // ranges drops them, across written and never-written pages.
    m.zero(256 * KiB + 5000, 10000);
    EXPECT_EQ(dram.sharedRanges(), 7u);
    m.zero(500 * KiB, 200 * KiB);
    EXPECT_TRUE(m.matches());
    EXPECT_EQ(dram.sharedRanges(), 5u);
}

/**
 * Seeded random write, copy, zero, share, read, raw-pointer and spliced
 * Bytes steps on a DRAM and an SPM, checked against a byte vector and the reference
 * bookkeeping after every step. Offsets cluster around page edges and
 * the edges of recent shares. Three steps build the shapes the page
 * directory must get right: many sub-page ranges at 512-byte offsets on
 * one page (tar headers), a range ending on a page edge that a copy then
 * continues, and a hole cut inside one range on one page.
 */
void
runMemModel(MemTarget &mem, uint64_t seed,
            const std::function<uint8_t *(goff_t, size_t)> &raw)
{
    constexpr size_t PAGE = 4096;
    std::mt19937_64 rng(seed);
    const SharedBytes srcs[] = {randomBytes(24 * KiB, rng),
                                randomBytes(9000, rng)};
    MemModel m(mem);
    std::vector<uint8_t> buf(3 * PAGE + 64), fresh(buf.size());
    std::vector<goff_t> edges;

    auto below = [&](size_t n) { return static_cast<size_t>(rng() % n); };
    auto pick = [&]() -> goff_t {
        goff_t at = below(mem.size());
        if (below(2)) {
            at = below(2) || edges.empty() ? below(mem.size() / PAGE) * PAGE
                                           : edges[below(edges.size())];
            at = at + below(5) - std::min<goff_t>(at, 2);
        }
        return std::min<goff_t>(at, mem.size() - 1);
    };
    auto length = [&](goff_t off) {
        size_t len = below(3) ? 1 + below(64) : 1 + below(buf.size() - 64);
        return std::min<size_t>(len, mem.size() - off);
    };
    auto share = [&](goff_t off, const SharedBytes &src, size_t srcOff,
                     size_t n) {
        m.share(off, src, srcOff, n);
        edges.push_back(off);
        edges.push_back(off + n);
        if (edges.size() > 16)
            edges.erase(edges.begin(), edges.begin() + 2);
    };
    const size_t pages = mem.size() / PAGE;

    for (int step = 0; step < 3000; ++step) {
        const goff_t off = pick();
        const size_t len = length(off);
        switch (below(11)) {
          case 0:
            for (size_t i = 0; i < len; ++i)
                fresh[i] = static_cast<uint8_t>(rng());
            m.write(off, fresh, len);
            break;
          case 1:
          case 2: {
            const goff_t to = pick();
            m.copy(off, to, std::min(len, mem.size() - to), buf,
                   below(4) == 0);
            break;
          }
          case 3:
            m.zero(off, len);
            break;
          case 4: {
            const SharedBytes &src = srcs[below(2)];
            const size_t srcOff = below(src->size() / 2);
            share(off, src, srcOff, std::min(len, src->size() - srcOff));
            break;
          }
          case 5:
            m.read(off, buf, len);
            break;
          case 6: {
            uint8_t *p = raw(off, len);
            ASSERT_TRUE(m.owned(off, len, p))
                << "raw " << off << " + " << len;
            break;
          }
          case 7: {
            // Sub-page ranges at 512-byte offsets, some continuing the
            // one before them in the same source.
            const goff_t page = below(pages) * PAGE;
            const SharedBytes &src = srcs[0];
            size_t srcOff = below(src->size() / 2);
            for (goff_t at = page; at < page + PAGE; at += 512) {
                if (below(4) == 0)
                    continue;
                const size_t n = below(2) ? 512 : 1 + below(512);
                if (below(2))
                    srcOff = below(src->size() / 2);
                share(at, src, srcOff, n);
                srcOff += n;
            }
            break;
          }
          case 8: {
            // A range ending on a page edge, continued by a copy of the
            // source's next bytes from elsewhere.
            const goff_t edge = (1 + below(pages - 1)) * PAGE;
            const SharedBytes &src = srcs[0];
            const size_t n = 1 + below(600);
            const size_t more = std::min<size_t>(1 + below(buf.size()),
                                                 mem.size() - edge);
            const size_t srcOff = below(src->size() - n - more);
            const goff_t from = below(2) ? 0 : mem.size() - more;
            if (from + more > edge - n && from < edge + more)
                break;
            share(edge - n, src, srcOff, n);
            share(from, src, srcOff + n, more);
            m.copy(from, edge, more, buf, false);
            break;
          }
          case 9: {
            // A hole inside one range, on one page: both ends stay.
            const goff_t page = below(pages) * PAGE;
            const SharedBytes &src = srcs[below(2)];
            const size_t a = below(PAGE / 4), b = PAGE / 2 + below(PAGE / 2);
            const size_t srcOff = below(src->size() - 2 * PAGE);
            const goff_t lo = page + (below(2) ? a : 0);
            const goff_t hi = std::min<goff_t>(page + b + below(2) * PAGE,
                                               mem.size());
            share(lo, src, srcOff, hi - lo);
            const goff_t hole = lo + 1 + below(page + b - lo - 2);
            const size_t n = 1 + below(page + b - hole - 1);
            if (below(2)) {
                for (size_t i = 0; i < n; ++i)
                    fresh[i] = static_cast<uint8_t>(rng());
                m.write(hole, fresh, n);
            } else {
                m.zero(hole, n);
            }
            break;
          }
          case 10: {
            // A Bytes value spliced from up to three reads, each cut
            // with sub(), written elsewhere: slices of several ranges,
            // sources and gaps, continuing each other or not.
            ModelBytes b;
            for (size_t k = 1 + below(3); k > 0; --k) {
                const goff_t at = pick();
                const size_t n = length(at);
                const ModelBytes part = m.readBytes(at, n);
                const size_t from = below(n + 1);
                b += part.sub(from, below(n - from + 1));
            }
            const goff_t to = pick();
            m.write(to, b.sub(0, std::min<size_t>(b.bytes.size(),
                                                  mem.size() - to)));
            break;
          }
        }
        ASSERT_TRUE(m.matches()) << "seed " << seed << " step " << step;
        ASSERT_TRUE(m.countsMatch())
            << "seed " << seed << " step " << step << ": "
            << mem.sharedRanges() << " ranges, " << m.ref.ranges()
            << " expected; " << mem.writtenPages() << " written pages, "
            << m.ref.writtenPages() << " expected";
    }
}

TEST(Mem, MatchesAPlainByteVector)
{
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        Dram dram(64 * KiB, 20);
        runMemModel(dram, seed, [&](goff_t off, size_t len) {
            return const_cast<uint8_t *>(dram.inspect(off, len));
        });
        Spm spm(32 * KiB);
        runMemModel(spm, seed, [&](goff_t off, size_t len) {
            return spm.ptr(static_cast<spmaddr_t>(off), len);
        });
    }
}

/**
 * Fill @p m with seeded random writes, zeros and shares of @p srcs: some
 * whole pages, some sub-page pieces, so pages end up written, shared,
 * both, or never touched.
 */
void
scribble(MemModel &m, std::mt19937_64 &rng, const SharedBytes &src)
{
    constexpr size_t PAGE = 4096;
    auto below = [&](size_t n) { return static_cast<size_t>(rng() % n); };
    std::vector<uint8_t> fresh(2 * PAGE);
    for (int step = 0; step < 40; ++step) {
        const goff_t off = below(m.mem.size() - fresh.size());
        const size_t len = below(2) ? 1 + below(64) : 1 + below(fresh.size());
        switch (below(3)) {
          case 0:
            for (size_t i = 0; i < len; ++i)
                fresh[i] = static_cast<uint8_t>(rng());
            m.write(off, fresh, len);
            break;
          case 1:
            m.zero(off, len);
            break;
          default: {
            const size_t srcOff = below(src->size() - len);
            m.share(off, src, srcOff, len);
            break;
          }
        }
    }
}

TEST(Mem, RangeCopyMatchesTheReference)
{
    // MemTarget::copy() into the same memory (on either side of the
    // source, sharing an edge page or not) and into another one with
    // content of its own: the bytes, ranges and written pages must
    // match the reference after each copy.
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937_64 rng(seed);
        auto below = [&](size_t n) { return static_cast<size_t>(rng() % n); };
        const SharedBytes src = randomBytes(24 * KiB, rng);
        Dram a(96 * KiB, 20), b(96 * KiB, 20);
        MemModel ma(a), mb(b);
        scribble(ma, rng, src);
        scribble(mb, rng, src);
        mb.copyFrom(b.size(), ma, a.size(), 0);
        for (int step = 0; step < 12; ++step) {
            const size_t len = 1 + below(24 * KiB);
            const goff_t from = below(a.size() - len + 1);
            if (below(2)) {
                goff_t to = below(b.size() - len + 1);
                mb.copyFrom(to, ma, from, len);
            } else {
                // A span of the same memory before or after the source,
                // sometimes right next to it.
                const bool after = below(2);
                const goff_t lo = after ? from + len : 0;
                const goff_t hi = after ? a.size() : from;
                if (hi - lo < len)
                    continue;
                const goff_t to = below(2) ? (after ? lo : hi - len)
                                           : lo + below(hi - lo - len + 1);
                ma.copyFrom(to, ma, from, len);
            }
            ASSERT_TRUE(ma.matches()) << "step " << step;
            ASSERT_TRUE(mb.matches()) << "step " << step;
            ASSERT_TRUE(ma.countsMatch())
                << "step " << step << ": " << a.sharedRanges() << " ranges, "
                << ma.ref.ranges() << " expected; " << a.writtenPages()
                << " pages, " << ma.ref.writtenPages() << " expected";
            ASSERT_TRUE(mb.countsMatch())
                << "step " << step << ": " << b.sharedRanges() << " ranges, "
                << mb.ref.ranges() << " expected; " << b.writtenPages()
                << " pages, " << mb.ref.writtenPages() << " expected";
        }
    }
}

TEST(Mem, PeekReadsInPlaceOutsideSharedRanges)
{
    // Bytes the store holds are handed out where they are; bytes with a
    // shared range among them come copied into the scratch buffer.
    std::mt19937_64 rng(5);
    const SharedBytes file = randomBytes(4 * KiB, rng);
    Dram dram(64 * KiB, 20);
    const uint32_t word = 0x01020304;
    dram.write(100, &word, sizeof(word));
    dram.share(8 * KiB, file, 0, 1000);
    std::vector<uint8_t> scratch(2 * KiB);
    const uint8_t *p = dram.peek(100, sizeof(word), scratch.data());
    EXPECT_NE(p, scratch.data());
    EXPECT_EQ(p, dram.inspect(100, sizeof(word)));
    EXPECT_EQ(std::memcmp(p, &word, sizeof(word)), 0);
    p = dram.peek(8 * KiB - 10, 20, scratch.data());
    EXPECT_EQ(p, scratch.data());
    EXPECT_TRUE(std::all_of(p, p + 10, [](uint8_t v) { return v == 0; }));
    EXPECT_TRUE(std::equal(p + 10, p + 20, file->begin()));
    EXPECT_EQ(dram.writtenPages(), 1u);
}

TEST(Mem, CopiedFileStaysNonResident)
{
    std::mt19937_64 rng(3);
    const SharedBytes file = randomBytes(64 * MiB, rng);
    std::vector<uint8_t> buf(4 * KiB);
    Dram dram(256 * MiB, 20);
    dram.share(0, file, 0, file->size());
    const size_t rss0 = residentBytes();
    const goff_t to = 128 * MiB;
    dram.zero(to, file->size());
    for (goff_t off = 0; off < file->size(); off += buf.size())
        dram.write(to + off, dram.read(off, buf.size()));
    bool same = true;
    for (goff_t off = 0; off < file->size(); off += buf.size()) {
        dram.read(to + off, buf.data(), buf.size());
        same = same && std::equal(buf.begin(), buf.end(),
                                  file->begin() + off);
    }
    EXPECT_TRUE(same);
    EXPECT_EQ(dram.writtenPages(), 0u);
    const size_t rss1 = residentBytes();
#ifdef __linux__
    ASSERT_GT(rss0, 0u);
    // A copy of the file would make its 64 MiB resident.
    EXPECT_LT(rss1 - rss0, 16 * MiB);
#endif
}

TEST(Mem, SpmStartsZeroedAndRoundTrips)
{
    Spm spm(64 * KiB);
    EXPECT_EQ(*spm.ptr(0, 1), 0);
    EXPECT_EQ(*spm.ptr(64 * KiB - 1, 1), 0);
    const uint32_t word = 0xdeadbeef;
    spm.write(100, &word, sizeof(word));
    uint32_t back = 0;
    spm.read(100, &back, sizeof(back));
    EXPECT_EQ(back, word);
    EXPECT_EQ(spm.accessLatency(), 1u);
}

TEST(MemDeathTest, OutOfBoundsAccessNamesTheMemory)
{
    Dram dram(4 * KiB, 20);
    Spm spm(4 * KiB);
    uint8_t buf[2] = {};
    EXPECT_DEATH(dram.read(4 * KiB, buf, 1), "DRAM access out of bounds");
    EXPECT_DEATH(spm.write(4 * KiB - 1, buf, 2), "SPM access out of bounds");
}

} // anonymous namespace
} // namespace m3
