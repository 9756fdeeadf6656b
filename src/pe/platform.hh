/**
 * @file
 * The Tomahawk-like platform: a set of PEs and one DRAM module, connected
 * by a packet-switched mesh NoC (Sec. 4.1). The platform wires the DTUs'
 * node-id resolvers and owns the global cost model.
 */

#ifndef M3_PE_PLATFORM_HH
#define M3_PE_PLATFORM_HH

#include <cmath>
#include <memory>
#include <vector>

#include "base/cost_model.hh"
#include "base/types.hh"
#include "mem/dram.hh"
#include "noc/noc.hh"
#include "pe/pe.hh"
#include "sim/fault_plan.hh"
#include "sim/simulator.hh"

namespace m3
{

/** Build-time description of a platform instance. */
struct PlatformSpec
{
    /** Descriptors of the PEs; index is the peid. */
    std::vector<PeDesc> pes;
    /** Capacity of each DRAM module. */
    size_t dramBytes = 64 * MiB;
    /** Independent DRAM modules (distfs stripes get one each). */
    uint32_t dramModules = 1;
    /** All cost/calibration parameters. */
    CostModel costs;
    /** Mesh width; 0 selects a near-square mesh automatically. */
    uint32_t meshCols = 0;

    /** Convenience: @p n general-purpose PEs. */
    static PlatformSpec
    generalPurpose(uint32_t n)
    {
        PlatformSpec s;
        s.pes.assign(n, PeDesc::general());
        return s;
    }
};

/** The assembled platform. NoC node ids: PE i -> i, DRAM m ->
 *  pes.size() + m (module 0 keeps the classic single-DRAM node id). */
class Platform
{
  public:
    Platform(Simulator &sim, PlatformSpec spec)
        : sim(sim), costModel(spec.costs),
          nodeTotal(static_cast<uint32_t>(spec.pes.size()) +
                    std::max<uint32_t>(1, spec.dramModules)),
          mesh(std::make_unique<Noc>(sim.queue(), spec.costs.hw,
                                     meshColsFor(spec),
                                     meshRowsFor(spec)))
    {
        uint32_t modules = std::max<uint32_t>(1, spec.dramModules);
        for (uint32_t m = 0; m < modules; ++m)
            dramMems.push_back(std::make_unique<Dram>(
                spec.dramBytes, spec.costs.hw.dramLatency));
        for (peid_t i = 0; i < spec.pes.size(); ++i) {
            peList.push_back(std::make_unique<Pe>(sim, spec.pes[i], *mesh,
                                                  i, i, spec.costs.hw));
        }
        // Wire the DTUs: node -> peer DTU, node -> memory target. Memory
        // endpoints can address the DRAM and any PE's SPM (used for
        // application loading, Sec. 4.5.5).
        auto dtuResolver = [this](uint32_t node) -> Dtu * {
            if (node < peList.size())
                return &peList[node]->dtu();
            return nullptr;
        };
        auto memResolver = [this](uint32_t node) -> MemTarget * {
            if (node >= peList.size() && node < nodeTotal)
                return dramMems[node - peList.size()].get();
            if (node < peList.size())
                return &peList[node]->spm();
            return nullptr;
        };
        for (auto &p : peList)
            p->dtu().connect(dtuResolver, memResolver);
    }

    Simulator &simulator() { return sim; }
    const CostModel &costs() const { return costModel; }
    Noc &noc() { return *mesh; }
    Dram &dram(uint32_t module = 0) { return *dramMems.at(module); }

    uint32_t peCount() const { return static_cast<uint32_t>(peList.size()); }
    Pe &pe(peid_t id) { return *peList.at(id); }

    /** NoC node of PE @p id (identity mapping by construction). */
    uint32_t nocIdOf(peid_t id) const { return id; }

    /** NoC node of DRAM module @p module. */
    uint32_t
    dramNode(uint32_t module = 0) const
    {
        return static_cast<uint32_t>(peList.size()) + module;
    }

    /** Number of independent DRAM modules. */
    uint32_t
    dramModules() const
    {
        return static_cast<uint32_t>(dramMems.size());
    }

    /** True if NoC node @p node is one of the DRAM modules. */
    bool
    isDramNode(uint32_t node) const
    {
        return node >= peList.size() && node < nodeTotal;
    }

    /**
     * Wire a fault plan into the NoC and every DTU, and schedule the
     * plan's PE kills. Must be called before the simulation starts.
     */
    void
    setFaultPlan(FaultPlan &plan)
    {
        mesh->setFaultPlan(&plan);
        for (auto &p : peList)
            p->dtu().setFaultPlan(&plan);
        for (const PeKill &k : plan.config().killPes) {
            if (k.node >= peList.size())
                panic("fault plan kills node %u which is not a PE",
                      k.node);
            peid_t pe = k.node;
            FaultPlan *fp = &plan;
            sim.queue().scheduleAbs(k.cycle, [this, pe, fp] {
                fp->notePeKill(sim.curCycle(), pe);
                if (M3_TRACE_ON)
                    trace::Tracer::instant(pe, "fault:pekill");
                peList[pe]->killCore();
            });
        }
    }

  private:
    static uint32_t
    meshColsFor(const PlatformSpec &spec)
    {
        uint32_t nodes = static_cast<uint32_t>(spec.pes.size()) +
                         std::max<uint32_t>(1, spec.dramModules);
        if (spec.meshCols)
            return spec.meshCols;
        return static_cast<uint32_t>(
            std::ceil(std::sqrt(static_cast<double>(nodes))));
    }

    static uint32_t
    meshRowsFor(const PlatformSpec &spec)
    {
        uint32_t nodes = static_cast<uint32_t>(spec.pes.size()) +
                         std::max<uint32_t>(1, spec.dramModules);
        uint32_t c = meshColsFor(spec);
        return (nodes + c - 1) / c;
    }

    Simulator &sim;
    CostModel costModel;
    uint32_t nodeTotal;
    std::unique_ptr<Noc> mesh;
    std::vector<std::unique_ptr<Dram>> dramMems;
    std::vector<std::unique_ptr<Pe>> peList;
};

} // namespace m3

#endif // M3_PE_PLATFORM_HH
