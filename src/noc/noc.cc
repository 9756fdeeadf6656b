#include "noc/noc.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/fault_plan.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace m3
{

Noc::Noc(EventQueue &eq, const HwCosts &hw, uint32_t cols, uint32_t rows)
    : eq(eq), hw(hw), cols(cols), rows(rows),
      links(static_cast<size_t>(cols) * rows * DIR_COUNT)
{
    if (cols == 0 || rows == 0)
        fatal("NoC mesh must have non-zero dimensions");
}

uint32_t
Noc::hops(nocid_t src, nocid_t dst) const
{
    uint32_t sx = src % cols, sy = src / cols;
    uint32_t dx = dst % cols, dy = dst / cols;
    uint32_t manhattan = (sx > dx ? sx - dx : dx - sx) +
                         (sy > dy ? sy - dy : dy - sy);
    // At least one hop: node -> router -> node even for self-sends.
    return manhattan + 1;
}

Cycles
Noc::idleLatency(nocid_t src, nocid_t dst, uint32_t payloadBytes) const
{
    return hops(src, dst) * hw.nocHopLatency + serialisation(payloadBytes);
}

Cycles
Noc::walk(nocid_t src, nocid_t dst, Cycles ser, Cycles head,
          Cycles &stalls)
{
    // Virtual cut-through: the head moves one hop per nocHopLatency; each
    // traversed link is then occupied for the serialisation time. If a
    // link is still busy from an earlier packet, the head waits there.
    // The XY route (X first, then Y: dimension-order, deadlock free) is
    // walked in place; nothing is materialized per packet.
    uint32_t x = src % cols, y = src / cols;
    const uint32_t dx = dst % cols, dy = dst / cols;
    auto traverse = [&](Direction d) {
        Link &l = link(y * cols + x, d);
        Cycles start = std::max(head, l.nextFree);
        stalls += start - head;
        l.nextFree = start + ser;
        if (M3_METRICS_ON)
            l.busy += ser;
        head = start + hw.nocHopLatency;
    };
    while (x != dx) {
        if (x < dx) {
            traverse(DIR_EAST);
            ++x;
        } else {
            traverse(DIR_WEST);
            --x;
        }
    }
    while (y != dy) {
        if (y < dy) {
            traverse(DIR_NORTH);
            ++y;
        } else {
            traverse(DIR_SOUTH);
            --y;
        }
    }
    // Ejection from the final router to the node: one more hop, which
    // makes delivery consistent with hops() = Manhattan distance + 1.
    return head + hw.nocHopLatency;
}

Cycles
Noc::send(nocid_t src, nocid_t dst, uint32_t payloadBytes, DeliverFn deliver)
{
    if (src >= nodeCount() || dst >= nodeCount())
        panic("NoC route outside mesh: %u -> %u (nodes: %u)", src, dst,
              nodeCount());
    const Cycles ser = serialisation(payloadBytes);

    Cycles stalls = 0;
    Cycles head = walk(src, dst, ser, eq.curCycle(), stalls);
    Cycles arrival = head + ser;

    nocStats.packets++;
    nocStats.payloadBytes += payloadBytes;
    nocStats.contentionStalls += stalls;

    if (M3_METRICS_ON) {
        static trace::Histogram &qd =
            trace::Metrics::histogram("noc.queue_delay");
        qd.observe(stalls);
    }

    // Record both flow endpoints up front: arrival is known
    // deterministically here, and the exporter sorts each track by
    // timestamp, so nothing needs to ride along in the delivery closure.
    uint64_t flowId = 0;
    if (M3_TRACE_ON) {
        flowId = trace::Tracer::nextFlowId();
        const uint64_t now = eq.curCycle();
        trace::Tracer::complete(trace::nocTrack(src), now, ser, "noc:pkt");
        trace::Tracer::flowBegin(trace::nocTrack(src), now, flowId, "noc");
    }

    if (faults) {
        FaultPlan::PacketDecision d =
            faults->onPacket(eq.curCycle(), src, dst);
        if (d.action == FaultPlan::PacketAction::Drop) {
            // The packet still occupied its links (bandwidth is spent),
            // but the tail never reaches the destination.
            nocStats.packetsDropped++;
            if (M3_TRACE_ON)
                trace::Tracer::instant(trace::nocTrack(src), "fault:drop");
            logtrace("noc: fault drop packet seq=%llu %u -> %u",
                     (unsigned long long)d.seq, src, dst);
            return arrival;
        }
        if (d.action == FaultPlan::PacketAction::Delay) {
            nocStats.packetsDelayed++;
            arrival += d.delay;
            if (M3_TRACE_ON)
                trace::Tracer::instant(trace::nocTrack(src), "fault:delay");
        }
    }

    if (M3_TRACE_ON) {
        trace::Tracer::complete(trace::nocTrack(dst), arrival, 1, "noc:recv");
        trace::Tracer::flowEnd(trace::nocTrack(dst), arrival, flowId, "noc");
    }

    // Counted when the delivery is committed to the queue; together with
    // the queue-drain invariant (eventsScheduled == eventsExecuted at
    // quiescence) this gives exact packet conservation: every packet is
    // either delivered or accounted as dropped, never silently lost.
    nocStats.packetsDelivered++;
    eq.scheduleAbs(arrival, std::move(deliver));
    return arrival;
}

void
Noc::exportMetrics(Cycles totalCycles) const
{
    static const char *dirName[DIR_COUNT] = {"E", "W", "N", "S"};
    for (uint32_t r = 0; r < nodeCount(); ++r) {
        for (uint32_t d = 0; d < DIR_COUNT; ++d) {
            const Cycles busy = links[r * DIR_COUNT + d].busy;
            if (!busy)
                continue;
            std::string base =
                "noc.link." + std::to_string(r) + "." + dirName[d];
            trace::Metrics::counter(base + ".busy_cycles").add(busy);
            if (totalCycles)
                trace::Metrics::gauge(base + ".util_pct")
                    .set(busy * 100 / totalCycles);
        }
    }
}

} // namespace m3
