/**
 * @file
 * A processing element: core + local scratchpad + DTU (the paper's
 * definition of "PE", Sec. 2.2). The core itself is not modelled at
 * instruction level; PE software is a C++ functor run on a fiber, and
 * its instruction cost is charged through the fiber's compute().
 */

#ifndef M3_PE_PE_HH
#define M3_PE_PE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "base/cost_model.hh"
#include "base/types.hh"
#include "dtu/dtu.hh"
#include "mem/spm.hh"
#include "noc/noc.hh"
#include "pe/pe_desc.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace m3
{

/**
 * One PE of the platform. Programs are installed as functors and started
 * when the DTU receives a start command (or directly, for boot).
 */
class Pe
{
  public:
    using Program = std::function<void()>;

    Pe(Simulator &sim, const PeDesc &desc, Noc &noc, peid_t id,
       uint32_t nocId, const HwCosts &hw)
        : sim(sim), peDesc(desc), peId(id),
          spmMem(std::make_unique<Spm>(desc.spmDataSize)),
          dtuUnit(std::make_unique<Dtu>(sim.queue(), noc, *spmMem, nocId, hw,
                                        desc.epCount))
    {
        dtuUnit->setStartHook([this] { startProgram(); });
        dtuUnit->setStartVpeHook([this](uint64_t v) { startProgramFor(v); });
    }

    peid_t id() const { return peId; }
    const PeDesc &desc() const { return peDesc; }
    Spm &spm() { return *spmMem; }
    Dtu &dtu() { return *dtuUnit; }

    /**
     * Install the program that runs when this PE is started. On the real
     * platform the binary has been copied into the SPM beforehand (the
     * copy cost is modelled by the actual DTU transfers that the loader
     * performs); here the functor carries the behaviour.
     */
    void
    installProgram(std::string name, Program body)
    {
        pendingName = std::move(name);
        pendingBody = std::move(body);
    }

    /** Start the installed program on a fresh fiber. */
    Fiber *
    startProgram()
    {
        if (!pendingBody)
            panic("PE%u started without an installed program", peId);
        Program body = std::move(pendingBody);
        pendingBody = nullptr;
        fiber = &sim.run("pe" + std::to_string(peId) + ":" + pendingName,
                         std::move(body));
        if (M3_TRACE_ON) {
            // Software spans and category counters of this program land
            // on the PE's track, labelled with the program name.
            fiber->accounting().traceTrack = peId;
            trace::Tracer::trackName(peId, "pe" + std::to_string(peId) +
                                               ":" + pendingName);
        }
        return fiber;
    }

    /** The fiber of the currently/last running program (or nullptr). */
    Fiber *programFiber() { return fiber; }

    /**
     * Install a program under a VPE identity. Unlike installProgram, any
     * number of these can be pending at once (co-scheduled children whose
     * parents loaded them before either started); the kernel's
     * VPE-qualified start command picks the right one.
     */
    void
    installProgramFor(uint64_t vpeId, std::string name, Program body)
    {
        pendingPrograms[vpeId] = {std::move(name), std::move(body)};
    }

    /** Start the program installed for @p vpeId on a fresh fiber. */
    Fiber *
    startProgramFor(uint64_t vpeId)
    {
        auto it = pendingPrograms.find(vpeId);
        if (it == pendingPrograms.end()) {
            // Boot-style installation: fall back to the unqualified slot.
            return startProgram();
        }
        if (fiber && !fiber->finished())
            panic("PE%u: VPE start while another program is resident",
                  peId);
        if (retainPrograms) {
            // Failover support: keep a copy of the entry functor so the
            // kernel can restart this VPE from scratch on another PE if
            // this one dies (the "binary" survives in DRAM; here the
            // functor stands in for it).
            retainedPrograms[vpeId] = it->second;
        }
        std::string name = std::move(it->second.first);
        Program body = std::move(it->second.second);
        pendingPrograms.erase(it);
        fiber = &sim.run("pe" + std::to_string(peId) + ":" + name,
                         std::move(body));
        if (M3_TRACE_ON) {
            fiber->accounting().traceTrack = peId;
            trace::Tracer::trackName(peId, "pe" + std::to_string(peId) +
                                               ":" + name);
        }
        return fiber;
    }

    // -------------------------------------------------------------------
    // Time multiplexing: more than one VPE can live on this PE. Exactly
    // one is resident (its fiber is `fiber`); the others are parked —
    // their fibers exist but never run until the kernel resumes them.
    // -------------------------------------------------------------------

    /**
     * Park the resident program under @p vpeId: the kernel descheduled
     * that VPE. The PE is afterwards free to start another program.
     */
    void
    parkResident(uint64_t vpeId)
    {
        if (!fiber)
            panic("PE%u: parkResident without a resident program", peId);
        fiber->park();
        // The SPM bump cursor is per-VPE state (the co-resident resets
        // it for its own layout); it travels with the parked fiber.
        parkedFibers[vpeId] = {fiber, spmMem->allocated()};
        fiber = nullptr;
    }

    /** True if @p vpeId has a parked fiber on this PE. */
    bool
    hasParked(uint64_t vpeId) const
    {
        return parkedFibers.count(vpeId) != 0;
    }

    /**
     * Resume the parked VPE @p vpeId: its fiber becomes the resident one
     * and receives any dispatch deferred while parked, plus a spurious
     * wakeup so it re-checks DTU state.
     */
    void
    resumeParked(uint64_t vpeId)
    {
        auto it = parkedFibers.find(vpeId);
        if (it == parkedFibers.end())
            panic("PE%u: resume of unknown VPE %llu", peId,
                  (unsigned long long)vpeId);
        if (fiber && !fiber->finished())
            panic("PE%u: resume while another program is resident", peId);
        fiber = it->second.fiber;
        spmMem->restoreAlloc(it->second.spmAllocMark);
        parkedFibers.erase(it);
        fiber->unpark();
    }

    /**
     * Drop a parked VPE's fiber (the VPE exited or was reclaimed while
     * descheduled). The fiber is killed: its stack is not unwound, like
     * a core that stops fetching.
     */
    void
    dropParked(uint64_t vpeId)
    {
        auto it = parkedFibers.find(vpeId);
        if (it == parkedFibers.end())
            return;
        it->second.fiber->kill();
        parkedFibers.erase(it);
    }

    /** Number of parked VPEs on this PE. */
    size_t parkedCount() const { return parkedFibers.size(); }

    // -------------------------------------------------------------------
    // Migration and failover: a VPE's software moves to another PE. The
    // fiber (the running stack) migrates with it — in reality the
    // instructions live in the spilled SPM image; here the fiber stands
    // in for them.
    // -------------------------------------------------------------------

    /**
     * Hook fired whenever a VPE's software is adopted by this PE from
     * another one: (fiber, vpeId, newPe). fiber is the migrated parked
     * fiber, or nullptr when only the retained entry functor moved
     * (failover restart — the old fiber died with its core).
     */
    void
    setVpeMovedHook(std::function<void(Fiber *, uint64_t, peid_t)> hook)
    {
        movedHook = std::move(hook);
    }

    /**
     * Live migration: take over @p vpeId's parked fiber (and any
     * installed-but-unstarted or retained program) from @p src. The SPM
     * allocation cursor travels with it; the kernel separately ships the
     * SPM contents and the DTU context.
     */
    void
    adoptParkedFrom(Pe &src, uint64_t vpeId)
    {
        auto it = src.parkedFibers.find(vpeId);
        if (it == src.parkedFibers.end())
            panic("PE%u: adopt of VPE %llu which is not parked on PE%u",
                  peId, (unsigned long long)vpeId, src.peId);
        parkedFibers[vpeId] = it->second;
        src.parkedFibers.erase(it);
        moveAuxState(src, vpeId);
        if (movedHook)
            movedHook(parkedFibers[vpeId].fiber, vpeId, peId);
    }

    /**
     * Migration of a VPE that was placed but never started (no parked
     * fiber yet): move its installed program over so the VPE-qualified
     * start command finds it here.
     */
    void
    adoptInstalledFrom(Pe &src, uint64_t vpeId)
    {
        moveAuxState(src, vpeId);
        if (movedHook)
            movedHook(nullptr, vpeId, peId);
    }

    /**
     * Failover: take over @p vpeId's retained entry functor from @p src
     * (whose core died, killing the fiber). The functor is re-installed
     * here as a pending program; the kernel restarts it with a fresh
     * context via the VPE-qualified start command.
     */
    void
    adoptRetained(Pe &src, uint64_t vpeId)
    {
        auto it = src.retainedPrograms.find(vpeId);
        if (it == src.retainedPrograms.end())
            panic("PE%u: failover of VPE %llu with no retained program "
                  "on PE%u", peId, (unsigned long long)vpeId, src.peId);
        pendingPrograms[vpeId] = it->second;
        src.retainedPrograms.erase(it);
        if (movedHook)
            movedHook(nullptr, vpeId, peId);
    }

    /** True if @p vpeId's entry functor was retained for failover. */
    bool
    hasRetained(uint64_t vpeId) const
    {
        return retainedPrograms.count(vpeId) != 0;
    }

    /** Forget @p vpeId's retained functor (the VPE exited for good). */
    void dropRetained(uint64_t vpeId) { retainedPrograms.erase(vpeId); }

    /** Retain entry functors of started VPEs (failover mode). */
    void setRetainPrograms(bool on) { retainPrograms = on; }

    /**
     * Fault injection: the core dies mid-run. Only the core stops; the
     * DTU keeps operating, so the kernel can still reset and reclaim
     * the PE through the NoC (the paper's point, Sec. 3).
     */
    void
    killCore()
    {
        coreDead = true;
        if (fiber && !fiber->finished())
            fiber->kill();
        // A dead core takes every VPE living on it down, parked or not.
        for (auto &[vpe, parked] : parkedFibers)
            parked.fiber->kill();
    }

    /**
     * True while the core is dead. The DTU keeps operating either way —
     * that is what lets the kernel distinguish "PE died" (failover) from
     * "VPE misbehaved" (reclaim) and still clean up through the NoC.
     */
    bool coreKilled() const { return coreDead; }

    /** True if a program is installed or still running. */
    bool
    busy() const
    {
        return pendingBody != nullptr || !pendingPrograms.empty() ||
               (fiber && !fiber->finished());
    }

    /** Mark the PE free again (after the kernel reclaimed it). */
    void
    release()
    {
        fiber = nullptr;
        pendingBody = nullptr;
        // A reclaimed-and-released PE counts as repaired: the kernel only
        // reuses it deliberately, and the watchdog's dead-vs-misbehaved
        // classification must start fresh for the next tenant.
        coreDead = false;
        if (parkedFibers.empty()) {
            pendingPrograms.clear();
            retainedPrograms.clear();
            spmMem->resetAlloc();
        }
    }

  private:
    /** Shared part of adoption: move per-VPE program state from @p src. */
    void
    moveAuxState(Pe &src, uint64_t vpeId)
    {
        auto pp = src.pendingPrograms.find(vpeId);
        if (pp != src.pendingPrograms.end()) {
            pendingPrograms[vpeId] = std::move(pp->second);
            src.pendingPrograms.erase(pp);
        }
        auto rp = src.retainedPrograms.find(vpeId);
        if (rp != src.retainedPrograms.end()) {
            retainedPrograms[vpeId] = std::move(rp->second);
            src.retainedPrograms.erase(rp);
        }
    }

    Simulator &sim;
    PeDesc peDesc;
    peid_t peId;
    std::unique_ptr<Spm> spmMem;
    std::unique_ptr<Dtu> dtuUnit;

    std::string pendingName;
    Program pendingBody;
    /** Per-VPE installed-but-not-started programs (multiplexed PEs). */
    std::map<uint64_t, std::pair<std::string, Program>> pendingPrograms;
    Fiber *fiber = nullptr;
    /** A descheduled VPE: its fiber (owned by Simulator) plus the SPM
     *  allocation cursor it left behind. */
    struct Parked
    {
        Fiber *fiber = nullptr;
        size_t spmAllocMark = 0;
    };
    /** Descheduled VPEs, keyed by VPE id. */
    std::map<uint64_t, Parked> parkedFibers;
    /** Entry functors of started VPEs, kept for failover restarts. */
    std::map<uint64_t, std::pair<std::string, Program>> retainedPrograms;
    bool retainPrograms = false;
    bool coreDead = false;
    std::function<void(Fiber *, uint64_t, peid_t)> movedHook;
};

} // namespace m3

#endif // M3_PE_PE_HH
