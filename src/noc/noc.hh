/**
 * @file
 * Packet-switched network-on-chip model.
 *
 * The platform's PEs and the DRAM module are attached to a 2D mesh of
 * routers. Packets are routed with XY dimension-order routing; each
 * directed link has a bandwidth of HwCosts::nocBytesPerCycle and a
 * per-hop latency. Contention is modelled: a packet occupies every link
 * on its path for its serialisation time, and later packets wanting the
 * same link wait (virtual cut-through approximation).
 *
 * The NoC transports opaque payloads: the sender provides a closure that
 * is executed at the destination when the tail of the packet arrives.
 * Protocol interpretation (messages, memory reads/writes, external DTU
 * configuration) lives in the DTU and DRAM modules.
 */

#ifndef M3_NOC_NOC_HH
#define M3_NOC_NOC_HH

#include <cstdint>
#include <vector>

#include "base/cost_model.hh"
#include "base/types.hh"
#include "sim/event_queue.hh"

namespace m3
{

class FaultPlan;

/** Identifier of a node (attachment point) on the NoC. */
using nocid_t = uint32_t;

/** Aggregate NoC statistics, exposed for tests and the microcore bench. */
struct NocStats
{
    uint64_t packets = 0;
    uint64_t payloadBytes = 0;
    Cycles contentionStalls = 0;
    uint64_t packetsDropped = 0;    //!< lost to injected faults
    uint64_t packetsDelayed = 0;    //!< delayed by injected faults
    /** Delivery callbacks that actually ran. Packet conservation —
     *  packets == packetsDelivered + packetsDropped at quiescence — is
     *  one of the checked invariants (tests/test_invariants.cc). */
    uint64_t packetsDelivered = 0;

    /** The metrics schema (trace::StatField): every member once. */
    static constexpr trace::StatField<NocStats> FIELDS[] = {
        {"packets", &NocStats::packets},
        {"payload_bytes", &NocStats::payloadBytes},
        {"contention_stalls", &NocStats::contentionStalls},
        {"packets_dropped", &NocStats::packetsDropped},
        {"packets_delayed", &NocStats::packetsDelayed},
        {"packets_delivered", &NocStats::packetsDelivered},
    };
};
static_assert(trace::statsTableCoversAll<NocStats>());

/**
 * The mesh interconnect. Nodes are numbered row-major on a cols x rows
 * grid; the platform assigns PEs and the DRAM module to node ids.
 */
class Noc
{
  public:
    /** Small-buffer optimized, like every engine callback (no per-packet
     *  allocation on the send path). */
    using DeliverFn = EventQueue::Callback;

    /**
     * @param eq event queue for packet delivery
     * @param hw hardware cost parameters (bandwidth, hop latency)
     * @param cols mesh width
     * @param rows mesh height
     */
    Noc(EventQueue &eq, const HwCosts &hw, uint32_t cols, uint32_t rows);

    /** Number of attachable node slots (cols * rows). */
    uint32_t nodeCount() const { return cols * rows; }

    /**
     * Inject a packet. The closure @p deliver runs at the destination at
     * the cycle the packet's tail arrives.
     *
     * @param src source node
     * @param dst destination node
     * @param payloadBytes payload size; the wire also carries a header of
     *        HwCosts::msgHeaderSize bytes
     * @param deliver executed on arrival
     * @return the cycle at which the packet will be delivered
     */
    Cycles send(nocid_t src, nocid_t dst, uint32_t payloadBytes,
                DeliverFn deliver);

    /**
     * Pure timing query: transfer latency for @p payloadBytes from
     * @p src to @p dst on an idle network.
     */
    Cycles idleLatency(nocid_t src, nocid_t dst,
                       uint32_t payloadBytes) const;

    /** Number of router hops between two nodes (Manhattan distance + 1). */
    uint32_t hops(nocid_t src, nocid_t dst) const;

    /** Aggregate statistics. */
    const NocStats &stats() const { return nocStats; }

    void resetStats() { nocStats = NocStats{}; }

    /**
     * Attach a fault plan; every injected packet consults it. Null (the
     * default) keeps the fault-free fast path.
     */
    void setFaultPlan(FaultPlan *plan) { faults = plan; }

    /**
     * Fold per-link occupancy into the metric registry: a busy-cycle
     * counter and (when @p totalCycles > 0) a utilization gauge in
     * percent for every link that carried at least one packet. Per-link
     * occupancy is only accumulated while metrics are enabled.
     */
    void exportMetrics(Cycles totalCycles) const;

  private:
    /** A directed link between adjacent routers (or router and node). */
    struct Link
    {
        Cycles nextFree = 0;
        Cycles busy = 0;  //!< occupied cycles (tracked when metrics on)
    };

    /**
     * Outgoing directions of a router. The link table is a flat
     * router x direction array sized at construction — the hot path
     * indexes it directly instead of hashing a 64-bit key per traversal.
     */
    enum Direction : uint32_t
    {
        DIR_EAST = 0,   //!< towards x+1
        DIR_WEST = 1,   //!< towards x-1
        DIR_NORTH = 2,  //!< towards y+1
        DIR_SOUTH = 3,  //!< towards y-1
        DIR_COUNT = 4,
    };

    Link &
    link(uint32_t router, Direction d)
    {
        return links[router * DIR_COUNT + d];
    }

    /**
     * Walk the XY route, reserving links from @p head on and
     * accumulating @p stalls; returns the head cycle after the final
     * ejection hop (arrival = return value + @p ser).
     */
    Cycles walk(nocid_t src, nocid_t dst, Cycles ser, Cycles head,
                Cycles &stalls);

    /** Serialisation time of a packet with @p payloadBytes of payload. */
    Cycles
    serialisation(uint32_t payloadBytes) const
    {
        uint32_t wire = payloadBytes + hw.msgHeaderSize;
        return (wire + hw.nocBytesPerCycle - 1) / hw.nocBytesPerCycle;
    }

    EventQueue &eq;
    HwCosts hw;
    uint32_t cols;
    uint32_t rows;
    std::vector<Link> links;
    NocStats nocStats;
    FaultPlan *faults = nullptr;
};

} // namespace m3

#endif // M3_NOC_NOC_HH
