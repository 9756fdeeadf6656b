/**
 * @file
 * Deterministic fault injection for the NoC/DTU layers.
 *
 * A FaultPlan is a seeded description of which faults to inject into a
 * run: drop/delay a packet, corrupt a message payload, refuse an
 * external-configuration ack, or kill a PE's core at a given cycle. The
 * NoC and the DTUs consult the plan at their injection points; software
 * (libm3 retry, the kernel watchdog, the m3fs client) then has to turn
 * the resulting losses into recoveries instead of hangs.
 *
 * Determinism is the whole point (MGSim/gem5-style reproducible failure
 * runs): every decision is a pure function of the plan seed and a
 * per-decision sequence number, independent of wall-clock, pointer
 * values or query order across categories. Two runs of the same
 * deterministic workload with the same plan configuration therefore
 * inject the same faults at the same cycles, and the recorded decision
 * trace compares bit-identically.
 */

#ifndef M3_SIM_FAULT_PLAN_HH
#define M3_SIM_FAULT_PLAN_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "trace/metrics.hh"

namespace m3
{

/** A directed src->dst NoC node pair used to scope fault injection. */
struct NodePair
{
    uint32_t src;
    uint32_t dst;
};

/** Kill the core on NoC node @p node at cycle @p cycle. */
struct PeKill
{
    uint32_t node;
    Cycles cycle;
};

/** Everything a FaultPlan may be asked to do, all off by default. */
struct FaultPlanCfg
{
    /** PRNG seed; same seed + same workload => same faults. */
    uint64_t seed = 1;

    /** Probability [0,1] of dropping an eligible packet. */
    double dropRate = 0.0;
    /** Stop dropping after this many drops (0 = unlimited). */
    uint64_t maxDrops = 0;
    /** Restrict drops to these src->dst pairs (empty = all traffic). */
    std::vector<NodePair> dropPairs;
    /** Additionally drop exactly these packet sequence numbers. */
    std::vector<uint64_t> dropSeqs;

    /** Probability [0,1] of delaying an eligible packet. */
    double delayRate = 0.0;
    /** Injected delay is uniform in [delayMin, delayMax]. */
    Cycles delayMin = 64;
    Cycles delayMax = 512;
    /** Restrict delays to these src->dst pairs (empty = all traffic).
     *  Delays may reorder packets on a route, so scoping them keeps
     *  control traffic (which relies on per-route FIFO order) exact
     *  while data routes get jittered. */
    std::vector<NodePair> delayPairs;

    /** Probability [0,1] of flipping one payload byte of a message. */
    double corruptRate = 0.0;
    /** Restrict corruption to these src->dst pairs (empty = all). */
    std::vector<NodePair> corruptPairs;

    /** Probability [0,1] of suppressing an external-config ack. */
    double extAckDropRate = 0.0;

    /** Scheduled core kills (the DTU survives; the kernel can reclaim). */
    std::vector<PeKill> killPes;

    /**
     * No probabilistic fault fires before this cycle (0 = from the
     * start). Sequence numbers still advance while disarmed, so arming
     * late changes WHICH packets are eligible, not the decision stream
     * determinism. Lets a plan spare a workload's setup phase (e.g. VPE
     * loading, whose memory acks software cannot retry) and fault only
     * the steady-state traffic. Explicit dropSeqs and killPes ignore
     * the gate: they name their victims directly.
     */
    Cycles armAt = 0;

    /** Attach the plan even if it can never fire (overhead tests). */
    bool attachInert = false;

    /** True if any fault can actually be injected. */
    bool
    canFire() const
    {
        return dropRate > 0.0 || delayRate > 0.0 || corruptRate > 0.0 ||
               extAckDropRate > 0.0 || !dropSeqs.empty() ||
               !killPes.empty();
    }

    /** True if the plan should be wired into the platform at all. */
    bool active() const { return canFire() || attachInert; }
};

/** Counters of injected faults, exposed for tests and benches. */
struct FaultStats
{
    uint64_t packetsSeen = 0;
    uint64_t packetsDropped = 0;
    uint64_t packetsDelayed = 0;
    Cycles delayInjected = 0;
    uint64_t payloadsCorrupted = 0;
    uint64_t extAcksRefused = 0;
    uint64_t peKills = 0;

    /** Injected fault events, exported as faults_injected. */
    uint64_t
    injected() const
    {
        return packetsDropped + packetsDelayed + payloadsCorrupted +
               extAcksRefused + peKills;
    }

    /** The metrics schema (trace::StatField): every member once. */
    static constexpr trace::StatField<FaultStats> FIELDS[] = {
        {"packets_seen", &FaultStats::packetsSeen},
        {"packets_dropped", &FaultStats::packetsDropped},
        {"packets_delayed", &FaultStats::packetsDelayed},
        {"delay_injected", &FaultStats::delayInjected},
        {"payloads_corrupted", &FaultStats::payloadsCorrupted},
        {"ext_acks_refused", &FaultStats::extAcksRefused},
        {"pe_kills", &FaultStats::peKills},
    };
};
static_assert(trace::statsTableCoversAll<FaultStats>());

/**
 * The injection oracle. One instance is shared by the NoC and all DTUs
 * of a platform; a null pointer at the injection points means "no plan"
 * and costs nothing.
 */
class FaultPlan
{
  public:
    enum class PacketAction : uint8_t
    {
        None,
        Drop,
        Delay,
    };

    /** What to do with one packet. */
    struct PacketDecision
    {
        PacketAction action = PacketAction::None;
        Cycles delay = 0;     //!< extra cycles when action == Delay
        uint64_t seq = 0;     //!< sequence number assigned to the packet
    };

    /** One injected fault, recorded for replay comparison. */
    struct TraceEntry
    {
        Cycles cycle;
        uint64_t seq;      //!< per-category decision sequence number
        uint8_t kind;      //!< 'D' drop, 'L' delay, 'C' corrupt, 'A' ack,
                           //!< 'K' kill
        uint64_t arg;      //!< delay cycles / byte offset / node id

        bool
        operator==(const TraceEntry &o) const
        {
            return cycle == o.cycle && seq == o.seq && kind == o.kind &&
                   arg == o.arg;
        }
    };

    explicit FaultPlan(FaultPlanCfg cfg);

    /**
     * Consulted by the NoC for every injected packet. Assigns the packet
     * the next sequence number and decides its fate.
     */
    PacketDecision onPacket(Cycles now, uint32_t src, uint32_t dst);

    /**
     * Consulted by a DTU when a message leaves: should the payload be
     * corrupted on the wire? If yes, @p byteOffset receives the index of
     * the payload byte to flip (only called with payloadBytes > 0).
     */
    bool corruptPayload(Cycles now, uint32_t src, uint32_t dst,
                        uint64_t payloadBytes, uint64_t &byteOffset);

    /** Consulted by a DTU about to send an external-config ack. */
    bool refuseExtAck(Cycles now, uint32_t src, uint32_t dst);

    /** Record a scheduled PE kill firing (called by the platform). */
    void notePeKill(Cycles now, uint32_t node);

    const FaultPlanCfg &config() const { return cfg; }
    const FaultStats &stats() const { return st; }
    const std::vector<TraceEntry> &trace() const { return decisions; }

    /** Compact fingerprint of the decision trace (FNV-1a). */
    uint64_t traceDigest() const;

  private:
    /** Stateless per-decision random value in [0,1). */
    double roll(uint64_t salt, uint64_t seq) const;
    /** Stateless per-decision raw 64-bit hash. */
    uint64_t hash(uint64_t salt, uint64_t seq) const;

    static bool pairMatch(const std::vector<NodePair> &pairs, uint32_t src,
                          uint32_t dst);

    FaultPlanCfg cfg;
    FaultStats st;
    std::vector<TraceEntry> decisions;
    std::vector<uint64_t> dropSeqsSorted;

    uint64_t packetSeq = 0;   //!< next packet sequence number
    uint64_t corruptSeq = 0;  //!< next corruption decision number
    uint64_t extAckSeq = 0;   //!< next ext-ack decision number
};

} // namespace m3

#endif // M3_SIM_FAULT_PLAN_HH
