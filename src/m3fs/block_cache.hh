/**
 * @file
 * The m3fs server's meta-data buffer cache: block-granular caching of
 * the filesystem image in the service's SPM, backed by DTU transfers
 * through the service's memory gate. Writes are write-back: dirty
 * blocks are written out on eviction and on the explicit flush the
 * server performs after each request. Write-through would turn every
 * bitmap bit into a DTU round trip and serialise the whole service
 * behind meta-data updates.
 *
 * Lookup is O(1): a block-number index plus an intrusive LRU list
 * replace the former linear scan, with the same allocation and
 * eviction order (buffers fill in index order, then the least
 * recently used one is evicted).
 */

#ifndef M3_M3FS_BLOCK_CACHE_HH
#define M3_M3FS_BLOCK_CACHE_HH

#include <cstring>
#include <unordered_map>
#include <vector>

#include "libm3/gates.hh"
#include "m3fs/fs_core.hh"
#include "trace/metrics.hh"

namespace m3
{
namespace m3fs
{

/** Cache statistics for tests and ablations. */
struct BlockCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writeBacks = 0;
    /** Misses whose DMA fill was elided: the pending write covered the
     *  whole block, so fetching the old content would be wasted. */
    uint64_t fillsSkipped = 0;
};

/** An LRU block cache implementing BlockAccess over a MemGate. */
class BlockCache : public BlockAccess
{
  public:
    /**
     * @param mem gate covering the filesystem image
     * @param blockSize the filesystem's block size
     * @param numBufs number of cached blocks
     */
    BlockCache(MemGate &mem, uint32_t blockSize, uint32_t numBufs)
        : mem(mem), blockSize(blockSize), bufs(numBufs)
    {
        for (Buf &b : bufs)
            b.data.resize(blockSize);
        index.reserve(numBufs);
    }

    void
    read(goff_t off, void *dst, size_t len) override
    {
        uint8_t *out = static_cast<uint8_t *>(dst);
        while (len > 0) {
            Buf &b = getBlock(static_cast<blockno_t>(off / blockSize));
            size_t boff = off % blockSize;
            size_t chunk = std::min<size_t>(len, blockSize - boff);
            std::memcpy(out, b.data.data() + boff, chunk);
            out += chunk;
            off += chunk;
            len -= chunk;
        }
    }

    /** The block's own buffer, after the one getBlock() that read()
     *  makes for bytes within one block. */
    const uint8_t *
    peek(goff_t off, size_t, void *) override
    {
        Buf &b = getBlock(static_cast<blockno_t>(off / blockSize));
        return b.data.data() + off % blockSize;
    }

    void
    write(goff_t off, const void *src, size_t len) override
    {
        const uint8_t *in = static_cast<const uint8_t *>(src);
        while (len > 0) {
            size_t boff = off % blockSize;
            size_t chunk = std::min<size_t>(len, blockSize - boff);
            // A write covering the whole block makes the old content
            // dead: skip the DMA fill on a miss.
            bool whole = boff == 0 && chunk == blockSize;
            Buf &b = getBlock(static_cast<blockno_t>(off / blockSize),
                              whole);
            std::memcpy(b.data.data() + boff, in, chunk);
            b.dirty = true;
            in += chunk;
            off += chunk;
            len -= chunk;
        }
    }

    /** Write all dirty blocks back to the image in DRAM. */
    void
    flushAll()
    {
        for (Buf &b : bufs)
            if (b.valid && b.dirty)
                flush(b);
    }

    const BlockCacheStats &stats() const { return cacheStats; }

  private:
    static constexpr uint32_t NIL = ~0u;

    struct Buf
    {
        blockno_t no = 0xffffffff;
        std::vector<uint8_t> data;
        uint32_t prev = NIL;  //!< towards MRU
        uint32_t next = NIL;  //!< towards LRU
        bool valid = false;
        bool dirty = false;
    };

    void
    flush(Buf &b)
    {
        mem.write(b.data.data(), blockSize,
                  static_cast<goff_t>(b.no) * blockSize);
        b.dirty = false;
        cacheStats.writeBacks++;
        if (M3_METRICS_ON) {
            static trace::Counter &wb =
                trace::Metrics::counter("m3fs.cache.write_backs");
            wb.inc();
        }
    }

    void
    unlink(uint32_t i)
    {
        Buf &b = bufs[i];
        if (b.prev != NIL)
            bufs[b.prev].next = b.next;
        else
            lruHead = b.next;
        if (b.next != NIL)
            bufs[b.next].prev = b.prev;
        else
            lruTail = b.prev;
        b.prev = b.next = NIL;
    }

    void
    pushFront(uint32_t i)
    {
        Buf &b = bufs[i];
        b.prev = NIL;
        b.next = lruHead;
        if (lruHead != NIL)
            bufs[lruHead].prev = i;
        lruHead = i;
        if (lruTail == NIL)
            lruTail = i;
    }

    /**
     * Locate (or load) block @p no. With @p fullOverwrite the caller
     * promises to rewrite the entire block, so a miss skips the DMA
     * fetch of the stale content.
     */
    Buf &
    getBlock(blockno_t no, bool fullOverwrite = false)
    {
        auto it = index.find(no);
        if (it != index.end()) {
            uint32_t i = it->second;
            unlink(i);
            pushFront(i);
            cacheStats.hits++;
            if (M3_METRICS_ON) {
                static trace::Counter &h =
                    trace::Metrics::counter("m3fs.cache.hits");
                h.inc();
            }
            return bufs[i];
        }
        cacheStats.misses++;
        if (M3_METRICS_ON) {
            static trace::Counter &m =
                trace::Metrics::counter("m3fs.cache.misses");
            m.inc();
        }
        uint32_t i;
        if (usedBufs < bufs.size()) {
            i = usedBufs++;
        } else {
            i = lruTail;
            Buf &victim = bufs[i];
            if (victim.dirty)
                flush(victim);
            index.erase(victim.no);
            unlink(i);
        }
        Buf &b = bufs[i];
        b.no = no;
        b.valid = true;
        b.dirty = false;
        index.emplace(no, i);
        pushFront(i);
        if (fullOverwrite) {
            cacheStats.fillsSkipped++;
            if (M3_METRICS_ON) {
                static trace::Counter &fs =
                    trace::Metrics::counter("m3fs.cache.fills_skipped");
                fs.inc();
            }
        } else {
            mem.read(b.data.data(), blockSize,
                     static_cast<goff_t>(no) * blockSize);
        }
        return b;
    }

    MemGate &mem;
    uint32_t blockSize;
    std::vector<Buf> bufs;
    std::unordered_map<blockno_t, uint32_t> index;
    uint32_t usedBufs = 0;
    uint32_t lruHead = NIL;
    uint32_t lruTail = NIL;
    BlockCacheStats cacheStats;
};

} // namespace m3fs
} // namespace m3

#endif // M3_M3FS_BLOCK_CACHE_HH
