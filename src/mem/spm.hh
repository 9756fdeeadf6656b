/**
 * @file
 * Per-PE scratchpad memory (SPM).
 *
 * The prototype platform's PEs have no caches and no MMU; the SPM is the
 * only directly addressable memory (Sec. 4.1). Software on the PE accesses
 * it with plain load/store (modelled as direct pointer access); everything
 * PE-external must be moved in and out through the DTU.
 *
 * A trivial bump allocator carves the data SPM into the regions software
 * needs (message buffers, ringbuffers, file I/O buffers). Real M3 places
 * code/data/heap/stack by linker script; the allocator plays that role.
 */

#ifndef M3_MEM_SPM_HH
#define M3_MEM_SPM_HH

#include "base/logging.hh"
#include "base/types.hh"
#include "mem/mem_target.hh"

namespace m3
{

/** A PE-local scratchpad, also usable as a remote DTU memory target. */
class Spm : public MemTarget
{
  public:
    /** SPM access is single-cycle from the NoC side. */
    explicit Spm(size_t bytes) : MemTarget(bytes, 1, "SPM") {}

    /**
     * Direct pointer for the local core's load/store accesses to @p len
     * bytes at @p addr. A raw pointer bypasses read() and write(), so any
     * shared range (MemTarget::share) that those bytes overlap is copied
     * in first, and the bytes count as written (MemTarget::zero).
     */
    uint8_t *
    ptr(spmaddr_t addr, size_t len)
    {
        return own(addr, len);
    }

    /**
     * Allocate @p len bytes of SPM (8-byte aligned). Panics when the SPM
     * is exhausted: on the real platform that is a link/alloc failure.
     */
    spmaddr_t
    alloc(size_t len)
    {
        bumpPos = (bumpPos + 7) & ~size_t{7};
        if (bumpPos + len > size())
            panic("SPM exhausted: %zu + %zu > %zu", bumpPos, len, size());
        spmaddr_t addr = static_cast<spmaddr_t>(bumpPos);
        bumpPos += len;
        return addr;
    }

    /** Reset the allocator (used when a new program takes over the PE). */
    void
    resetAlloc()
    {
        bumpPos = 0;
    }

    /** Bytes currently allocated. */
    size_t allocated() const { return bumpPos; }

    /**
     * Restore a previously observed allocation mark. The cursor is
     * logically per-VPE: on a time-multiplexed PE it is saved with the
     * descheduled VPE and restored here when that VPE comes back.
     */
    void
    restoreAlloc(size_t mark)
    {
        if (mark > size())
            panic("SPM alloc mark out of bounds: %zu > %zu", mark, size());
        bumpPos = mark;
    }

  private:
    size_t bumpPos = 0;
};

} // namespace m3

#endif // M3_MEM_SPM_HH
