/**
 * @file
 * The platform's DRAM module: one NoC node holding the external memory
 * that all PEs share (Sec. 4.1: Tomahawk has one DRAM module). m3fs keeps
 * the filesystem image here, pipes keep their ringbuffers here, and
 * applications obtain regions of it via memory capabilities.
 */

#ifndef M3_MEM_DRAM_HH
#define M3_MEM_DRAM_HH

#include "base/types.hh"
#include "mem/mem_target.hh"

namespace m3
{

/** The external DRAM as a DTU memory target. */
class Dram : public MemTarget
{
  public:
    /**
     * @param bytes capacity
     * @param latency fixed access latency per request, in cycles
     */
    Dram(size_t bytes, Cycles latency) : MemTarget(bytes, latency, "DRAM") {}

    /**
     * Direct pointer to @p len bytes at @p off, for functional inspection
     * in tests. A raw pointer bypasses read(), so any shared range that
     * the bytes overlap is copied in first (see MemTarget::share), and
     * the bytes count as written.
     */
    const uint8_t *
    inspect(goff_t off, size_t len)
    {
        return own(off, len);
    }
};

} // namespace m3

#endif // M3_MEM_DRAM_HH
