/**
 * @file
 * Capabilities and the kernel objects they refer to (Sec. 4.5.3).
 *
 * A capability is a pair of a kernel object and permissions for it; the
 * kernel maintains a table of capabilities per VPE. Delegation creates a
 * child capability in the target VPE's table; the resulting tree (the
 * "mapping database" of the L4 lineage) supports recursive revocation.
 */

#ifndef M3_KERNEL_CAPS_HH
#define M3_KERNEL_CAPS_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/errors.hh"
#include "base/types.hh"
#include "kernel/kchannel.hh"

namespace m3
{
namespace kernel
{

/** Kinds of kernel objects capabilities can refer to. */
enum class ObjType : uint8_t
{
    RGate,   //!< a receive gate (ringbuffer description)
    SGate,   //!< a send gate towards a receive gate
    Mem,     //!< a region of some memory (DRAM or a PE's SPM)
    Vpe,     //!< a virtual PE
    Serv,    //!< a registered service
    Sess,    //!< a session with a service
};

/** Base of all kernel objects; refcounted via shared_ptr. */
struct KObject
{
    explicit KObject(ObjType type) : type(type) {}
    virtual ~KObject() = default;

    ObjType type;
};

/** A receive gate: the kernel-side view of a receive ringbuffer. */
struct RGateObj : KObject
{
    RGateObj(vpeid_t owner, uint32_t slots, uint32_t slotSize)
        : KObject(ObjType::RGate), owner(owner), slots(slots),
          slotSize(slotSize)
    {
    }

    vpeid_t owner;
    uint32_t slots;
    uint32_t slotSize;

    /** Set once the owner activated the gate on an endpoint. */
    bool activated = false;
    uint32_t node = 0;
    epid_t ep = INVALID_EP;

    /** An Activate of a send gate to this gate, deferred until this
     *  gate is activated or revoked (Sec. 4.5.4). */
    struct ActWaiter
    {
        vpeid_t vpe;
        capsel_t capSel;  //!< the send gate
        epid_t ep;
        uint32_t slot;    //!< syscall ring slot to reply to
    };
    std::vector<ActWaiter> actWaiters;

    /**
     * Multi-kernel: a shadow of a gate owned by another kernel domain.
     * The owner VPE is unknown locally, so the serialized generation of
     * the remote owner is carried along for send-EP configuration.
     */
    uint32_t fixedGen = 0;
};

/** A send gate: the right to send to a receive gate with a given label. */
struct SGateObj : KObject
{
    SGateObj(std::shared_ptr<RGateObj> rgate, label_t label,
             uint32_t credits)
        : KObject(ObjType::SGate), rgate(std::move(rgate)), label(label),
          credits(credits)
    {
    }

    std::shared_ptr<RGateObj> rgate;
    label_t label;
    uint32_t credits;
};

/** A memory region on some NoC node. */
struct MemObj : KObject
{
    MemObj(uint32_t node, goff_t off, uint64_t size, uint8_t perms)
        : KObject(ObjType::Mem), node(node), off(off), size(size),
          perms(perms)
    {
    }

    uint32_t node;
    goff_t off;
    uint64_t size;
    uint8_t perms;
};

/** A VPE reference (the VPE state itself lives in the kernel). */
struct VpeRefObj : KObject
{
    explicit VpeRefObj(vpeid_t vpe) : KObject(ObjType::Vpe), vpe(vpe) {}

    vpeid_t vpe;
};

/** A registered service: name plus the kernel's channel to it. */
struct ServObj : KObject
{
    ServObj(std::string name, vpeid_t owner,
            std::shared_ptr<RGateObj> rgate, KReplyTable &replies,
            KChannel::Dispatch dispatch)
        : KObject(ObjType::Serv), name(std::move(name)), owner(owner),
          rgate(std::move(rgate)), chan(replies, 16, std::move(dispatch))
    {
    }

    std::string name;
    vpeid_t owner;
    std::shared_ptr<RGateObj> rgate;

    /**
     * The kernel's channel to the service, created at registration
     * (Sec. 4.5.3). Its 16 credits bound the kernel's requests in
     * flight, so the service's ring never overflows; excess requests
     * queue in the kernel, as do requests while the kernel's reply ring,
     * which all services share, has no free slot. Revoking the
     * registration, or the exit of its server, fails every request
     * still pending on it.
     */
    KChannel chan;

    /**
     * Set when the registration was revoked (server reclaimed or
     * exited). Sessions keep shared_ptrs to the ServObj; exchanges
     * against a dead service fail with PeerGone instead of deferring
     * against a server that can never answer.
     */
    bool dead = false;
};

/** A session with a service, identified by a service-chosen word. */
struct SessObj : KObject
{
    SessObj(std::shared_ptr<ServObj> serv, uint64_t ident)
        : KObject(ObjType::Sess), serv(std::move(serv)), ident(ident)
    {
    }

    /** A session with a service living in another kernel domain. */
    SessObj(std::string remoteName, uint32_t remoteDomain, uint64_t ident)
        : KObject(ObjType::Sess), ident(ident),
          remoteName(std::move(remoteName)), remoteDomain(remoteDomain)
    {
    }

    bool remote() const { return serv == nullptr; }

    std::shared_ptr<ServObj> serv;  //!< nullptr for remote sessions
    uint64_t ident;

    /** Multi-kernel: service name and owning domain of a remote session. */
    std::string remoteName;
    uint32_t remoteDomain = ~0u;
};

/**
 * One entry of a VPE's capability table. Parent/children pointers span
 * tables and record every delegation for recursive revoke.
 */
struct Capability
{
    Capability(vpeid_t owner, capsel_t sel, std::shared_ptr<KObject> obj)
        : owner(owner), sel(sel), obj(std::move(obj))
    {
    }

    vpeid_t owner;
    capsel_t sel;
    std::shared_ptr<KObject> obj;

    Capability *parent = nullptr;
    std::vector<Capability *> children;

    /** Endpoint the owner activated this capability on (if any). */
    epid_t activatedEp = INVALID_EP;
};

/** The per-VPE capability table (Sec. 4.5.3). */
class CapTable
{
  public:
    explicit CapTable(vpeid_t vpe) : vpe(vpe) {}

    CapTable(const CapTable &) = delete;
    CapTable &operator=(const CapTable &) = delete;

    /** Look up a capability; nullptr if the selector is empty. */
    Capability *
    get(capsel_t sel) const
    {
        auto it = table.find(sel);
        return it == table.end() ? nullptr : it->second.get();
    }

    /** Look up, additionally requiring the object type. */
    Capability *
    get(capsel_t sel, ObjType type) const
    {
        Capability *c = get(sel);
        return (c && c->obj->type == type) ? c : nullptr;
    }

    /** Create a capability at @p sel. Fails if the selector is in use. */
    Capability *
    put(capsel_t sel, std::shared_ptr<KObject> obj,
        Capability *parent = nullptr)
    {
        if (table.count(sel))
            return nullptr;
        auto cap = std::make_unique<Capability>(vpe, sel, std::move(obj));
        Capability *raw = cap.get();
        if (parent) {
            raw->parent = parent;
            parent->children.push_back(raw);
        }
        table[sel] = std::move(cap);
        return raw;
    }

    /**
     * Remove the entry at @p sel (unlinks it from its parent). The
     * caller is responsible for having handled the children (revoke).
     */
    void
    remove(capsel_t sel)
    {
        auto it = table.find(sel);
        if (it == table.end())
            return;
        Capability *c = it->second.get();
        if (c->parent) {
            auto &sibs = c->parent->children;
            for (auto sit = sibs.begin(); sit != sibs.end(); ++sit) {
                if (*sit == c) {
                    sibs.erase(sit);
                    break;
                }
            }
        }
        table.erase(it);
    }

    /** Number of capabilities in the table. */
    size_t size() const { return table.size(); }

    /**
     * Snapshot of the selectors in use. Used by revoke-all paths (the
     * watchdog's PE reclaim), which mutate the table while walking it.
     */
    std::vector<capsel_t>
    sels() const
    {
        std::vector<capsel_t> out;
        out.reserve(table.size());
        for (const auto &[sel, cap] : table)
            out.push_back(sel);
        return out;
    }

    vpeid_t vpeId() const { return vpe; }

  private:
    vpeid_t vpe;
    std::map<capsel_t, std::unique_ptr<Capability>> table;
};

} // namespace kernel
} // namespace m3

#endif // M3_KERNEL_CAPS_HH
