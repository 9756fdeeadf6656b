/**
 * @file
 * DTU register-level definitions: endpoint configurations and the message
 * header (Sec. 4.4). Endpoint configuration registers (buffer, target,
 * credits, label) are only writable by kernel PEs — locally when the DTU
 * is privileged, remotely via external-configuration packets otherwise.
 */

#ifndef M3_DTU_REGS_HH
#define M3_DTU_REGS_HH

#include <cstdint>

#include "base/errors.hh"
#include "base/types.hh"

namespace m3
{

/** What an endpoint is configured as (Sec. 4.3). */
enum class EpType : uint8_t
{
    Invalid,
    Send,
    Receive,
    Memory,
};

/** Permissions of a memory endpoint. */
enum MemPerms : uint8_t
{
    MEM_R = 1,
    MEM_W = 2,
    MEM_RW = MEM_R | MEM_W,
};

/** Credit value meaning "never runs out" (kernel-granted channels). */
static constexpr uint32_t CREDITS_UNLIMITED = 0xffffffff;

/** Maximum ringbuffer slots per receive endpoint. */
static constexpr uint32_t MAX_SLOTS = 64;

/** Configuration of a send endpoint. */
struct SendEpCfg
{
    uint32_t targetNode = 0;   //!< NoC node of the receiver
    epid_t targetEp = INVALID_EP;
    label_t label = 0;         //!< receiver-chosen, unforgeable by sender
    uint32_t credits = 0;      //!< messages in flight; CREDITS_UNLIMITED
    uint32_t maxMsgSize = 0;   //!< slot size of the target ringbuffer
    /**
     * Credit ceiling: refunds (reply delivery, aborts) never raise the
     * credit count above this. 0 means "use the initial credits" — the
     * kernel-side config helpers fill it in, so non-multiplexed setups
     * behave exactly as before.
     */
    uint32_t maxCredits = 0;
    /**
     * Required DTU generation of the receiver, stamped into outgoing
     * headers. 0 is the wildcard (deliver to whatever generation is
     * resident — the single-occupancy behaviour). The kernel sets a
     * VPE's generation here when multiplexing, so messages addressed to
     * a descheduled VPE are dropped instead of leaking into the VPE that
     * currently owns the receiver PE.
     */
    uint32_t targetGen = 0;
};

/** Configuration of a receive endpoint. */
struct RecvEpCfg
{
    spmaddr_t bufAddr = 0;     //!< ringbuffer location in the local SPM
    uint32_t slotCount = 0;    //!< number of fixed-size slots (<= MAX_SLOTS)
    uint32_t slotSize = 0;     //!< maximum message size incl. header
    bool replyProtected = false; //!< kernel verified r/o header placement
};

/** Configuration of a memory endpoint. */
struct MemEpCfg
{
    uint32_t targetNode = 0;   //!< NoC node of the memory
    goff_t offset = 0;         //!< start of the accessible region
    uint64_t size = 0;         //!< length of the accessible region
    uint8_t perms = 0;         //!< MemPerms bitmask
};

/** One endpoint's register set (a tagged union of the three configs). */
struct EpRegs
{
    EpType type = EpType::Invalid;
    SendEpCfg send;
    RecvEpCfg recv;
    MemEpCfg mem;

    void
    invalidate()
    {
        *this = EpRegs{};
    }
};

/**
 * The access check of every memory command, on the DTU and on the spin
 * path that stands in for its transfers: @p r must be a memory EP that
 * grants @p perm (MEM_R or MEM_W) on all of [off, off + size).
 */
inline Error
memAccess(const EpRegs &r, uint8_t perm, goff_t off, uint64_t size)
{
    if (r.type != EpType::Memory)
        return Error::InvalidEp;
    if (!(r.mem.perms & perm))
        return Error::NoPerm;
    if (off > r.mem.size || size > r.mem.size - off)
        return Error::OutOfBounds;
    return Error::None;
}

/**
 * The header the DTU prepends to every message (Sec. 4.4.2). It is
 * physically stored at the start of the ringbuffer slot; the reply
 * information inside it is why reply-enabled ringbuffers must be placed
 * in read-only memory by the kernel (Sec. 4.4.4).
 */
struct MessageHeader
{
    label_t label = 0;         //!< receiver-chosen channel label
    uint32_t length = 0;       //!< payload bytes
    uint32_t senderNode = 0;   //!< NoC node of the sender
    epid_t senderEp = INVALID_EP; //!< sender's send EP (credit refund)
    epid_t replyEp = INVALID_EP;  //!< sender's recv EP for the reply
    label_t replyLabel = 0;    //!< label the reply will carry
    epid_t creditEp = INVALID_EP; //!< send EP to refund on reply delivery
    /**
     * DTU generation of the sender when the message left. A reply
     * carries it back as targetGen: if the sender's DTU was reset in
     * the meantime (its PE was given to another VPE), the stale reply
     * is dropped instead of leaking into the new owner's ringbuffers.
     */
    uint32_t senderGen = 0;
    uint32_t targetGen = 0;    //!< replies: required receiver generation
    /**
     * Additive 16-bit checksum over the payload, computed by the sending
     * DTU before injection. The receiving DTU verifies it and drops the
     * message on mismatch (NocFault), so software sees a loss — which it
     * already has to handle — instead of silent data corruption.
     */
    uint16_t payloadSum = 0;
    uint8_t flags = 0;         //!< FL_REPLY etc.

    static constexpr uint8_t FL_REPLY = 1;       //!< this is a reply
    static constexpr uint8_t FL_REPLY_EN = 2;    //!< replying is allowed

    bool isReply() const { return flags & FL_REPLY; }
    bool canReply() const { return flags & FL_REPLY_EN; }
};

/** Payload checksum as computed/verified by the DTUs. */
inline uint16_t
payloadChecksum(const uint8_t *data, size_t len)
{
    // Additive mod 2^16: any single-byte change (|delta| < 2^16) is
    // guaranteed to alter the sum, which covers the injected faults.
    uint32_t sum = 0;
    for (size_t i = 0; i < len; ++i)
        sum += data[i];
    return static_cast<uint16_t>(sum);
}

} // namespace m3

#endif // M3_DTU_REGS_HH
