/**
 * @file
 * The memory that can be the target of a DTU memory endpoint: the
 * platform's DRAM module, or another PE's scratchpad (used e.g. for
 * application loading, Sec. 4.5.5). Both are one bounds-checked byte
 * array that the host OS zeroes lazily: the storage comes from calloc,
 * so a multi-GiB DRAM of which a run uses a few hundred MiB pays only
 * for the pages it touches.
 */

#ifndef M3_MEM_MEM_TARGET_HH
#define M3_MEM_MEM_TARGET_HH

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

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
#ifdef MADV_HUGEPAGE
        // A hint only: back the 2 MiB-aligned interior with huge pages,
        // so first touch faults once per 2 MiB instead of per 4 KiB.
        constexpr uintptr_t huge = uintptr_t{2} << 20;
        uintptr_t lo = (reinterpret_cast<uintptr_t>(data.get()) + huge - 1) &
                       ~(huge - 1);
        uintptr_t hi = (reinterpret_cast<uintptr_t>(data.get()) + bytes) &
                       ~(huge - 1);
        if (lo < hi)
            madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_HUGEPAGE);
#endif
    }

    /** Capacity in bytes. */
    size_t size() const { return bytes; }

    /** Copy @p len bytes at @p off into @p dst. Bounds-checked. */
    void
    read(goff_t off, void *dst, size_t len)
    {
        std::memcpy(dst, at(off, len), len);
    }

    /** Copy @p len bytes from @p src to @p off. Bounds-checked. */
    void
    write(goff_t off, const void *src, size_t len)
    {
        std::memcpy(at(off, len), src, len);
    }

    /** Set @p len bytes at @p off to zero. */
    void
    zero(goff_t off, size_t len)
    {
        std::memset(at(off, len), 0, len);
    }

    /** Fixed access latency per request, in cycles. */
    Cycles accessLatency() const { return latency; }

  protected:
    /** Bounds-checked pointer to @p len bytes at @p off. */
    uint8_t *
    at(goff_t off, size_t len) const
    {
        if (off > bytes || len > bytes - off)
            panic("%s access out of bounds: %llu + %zu > %zu", kind,
                  static_cast<unsigned long long>(off), len, bytes);
        return data.get() + off;
    }

  private:
    struct Free
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };

    size_t bytes;
    Cycles latency;
    const char *kind;
    std::unique_ptr<uint8_t[], Free> data;
};

} // namespace m3

#endif // M3_MEM_MEM_TARGET_HH
