#include "sim/fault_plan.hh"

#include <algorithm>

namespace m3
{

namespace
{

/** splitmix64: full-period mixer, good avalanche for hash use. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

constexpr uint64_t SALT_DROP = 0x64726f70ULL;    // "drop"
constexpr uint64_t SALT_DELAY = 0x64656c61ULL;   // "dela"
constexpr uint64_t SALT_DELAY_AMT = 0x616d6f75ULL;
constexpr uint64_t SALT_CORRUPT = 0x636f7272ULL; // "corr"
constexpr uint64_t SALT_CORRUPT_OFF = 0x6f666673ULL;
constexpr uint64_t SALT_EXTACK = 0x6561636bULL;  // "eack"

} // anonymous namespace

FaultPlan::FaultPlan(FaultPlanCfg c) : cfg(std::move(c))
{
    dropSeqsSorted = cfg.dropSeqs;
    std::sort(dropSeqsSorted.begin(), dropSeqsSorted.end());
}

uint64_t
FaultPlan::hash(uint64_t salt, uint64_t seq) const
{
    return mix64(mix64(cfg.seed ^ salt) ^ seq);
}

double
FaultPlan::roll(uint64_t salt, uint64_t seq) const
{
    // 53 high-quality bits -> [0,1), same construction as Random.
    return static_cast<double>(hash(salt, seq) >> 11) *
           (1.0 / 9007199254740992.0);
}

bool
FaultPlan::pairMatch(const std::vector<NodePair> &pairs, uint32_t src,
                     uint32_t dst)
{
    if (pairs.empty())
        return true;
    for (const NodePair &p : pairs)
        if (p.src == src && p.dst == dst)
            return true;
    return false;
}

FaultPlan::PacketDecision
FaultPlan::onPacket(Cycles now, uint32_t src, uint32_t dst)
{
    PacketDecision d;
    d.seq = packetSeq++;
    st.packetsSeen++;

    bool armed = now >= cfg.armAt;
    bool drop = std::binary_search(dropSeqsSorted.begin(),
                                   dropSeqsSorted.end(), d.seq);
    if (!drop && armed && cfg.dropRate > 0.0 &&
        pairMatch(cfg.dropPairs, src, dst) &&
        (cfg.maxDrops == 0 || st.packetsDropped < cfg.maxDrops)) {
        drop = roll(SALT_DROP, d.seq) < cfg.dropRate;
    }
    if (drop) {
        d.action = PacketAction::Drop;
        st.packetsDropped++;
        decisions.push_back({now, d.seq, 'D', (uint64_t(src) << 32) | dst});
        return d;
    }

    if (armed && cfg.delayRate > 0.0 &&
        pairMatch(cfg.delayPairs, src, dst) &&
        roll(SALT_DELAY, d.seq) < cfg.delayRate) {
        Cycles span = cfg.delayMax >= cfg.delayMin
                          ? cfg.delayMax - cfg.delayMin + 1
                          : 1;
        d.delay = cfg.delayMin + hash(SALT_DELAY_AMT, d.seq) % span;
        d.action = PacketAction::Delay;
        st.packetsDelayed++;
        st.delayInjected += d.delay;
        decisions.push_back({now, d.seq, 'L', d.delay});
    }
    return d;
}

bool
FaultPlan::corruptPayload(Cycles now, uint32_t src, uint32_t dst,
                          uint64_t payloadBytes, uint64_t &byteOffset)
{
    uint64_t seq = corruptSeq++;
    if (now < cfg.armAt || cfg.corruptRate <= 0.0 || payloadBytes == 0 ||
        !pairMatch(cfg.corruptPairs, src, dst)) {
        return false;
    }
    if (roll(SALT_CORRUPT, seq) >= cfg.corruptRate)
        return false;
    byteOffset = hash(SALT_CORRUPT_OFF, seq) % payloadBytes;
    st.payloadsCorrupted++;
    decisions.push_back({now, seq, 'C', byteOffset});
    return true;
}

bool
FaultPlan::refuseExtAck(Cycles now, uint32_t src, uint32_t dst)
{
    uint64_t seq = extAckSeq++;
    if (now < cfg.armAt || cfg.extAckDropRate <= 0.0)
        return false;
    if (roll(SALT_EXTACK, seq) >= cfg.extAckDropRate)
        return false;
    st.extAcksRefused++;
    decisions.push_back({now, seq, 'A', (uint64_t(src) << 32) | dst});
    return true;
}

void
FaultPlan::notePeKill(Cycles now, uint32_t node)
{
    st.peKills++;
    decisions.push_back({now, st.peKills - 1, 'K', node});
}

uint64_t
FaultPlan::traceDigest() const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto fnv = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const TraceEntry &e : decisions) {
        fnv(e.cycle);
        fnv(e.seq);
        fnv(e.kind);
        fnv(e.arg);
    }
    return h;
}

} // namespace m3
