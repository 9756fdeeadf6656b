/**
 * @file
 * Kernel interface (KIF): the wire protocol between applications and the
 * M3 kernel, plus the platform conventions both sides rely on.
 *
 * System calls are messages sent over the DTU to the kernel PE
 * (Sec. 3, 5.3); this header defines their opcodes and layouts. It also
 * fixes the endpoint and SPM-layout conventions the kernel establishes
 * when it creates a VPE.
 */

#ifndef M3_KERNEL_KIF_HH
#define M3_KERNEL_KIF_HH

#include <cstdint>

#include "base/op_table.hh"
#include "base/types.hh"

namespace m3
{
namespace kif
{

// ---------------------------------------------------------------------
// Platform conventions.
// ---------------------------------------------------------------------

/** EP 0 of every application PE: send EP towards the kernel (syscalls). */
static constexpr epid_t SYSC_SEP = 0;
/** EP 1: receive EP for syscall replies. */
static constexpr epid_t SYSC_REP = 1;
/** First endpoint that libm3 may use for gate multiplexing. */
static constexpr epid_t FIRST_FREE_EP = 2;

/** SPM address of the syscall-reply ringbuffer (fixed by convention). */
static constexpr spmaddr_t SYSC_RBUF_ADDR = 0;
/** Slots and slot size of the syscall-reply ring. */
static constexpr uint32_t SYSC_RBUF_SLOTS = 4;
static constexpr uint32_t SYSC_RBUF_SLOTSIZE = 512;
/** SPM bytes reserved for system ringbuffers ([0, RESERVED_SPM)). */
static constexpr size_t RESERVED_SPM = 4 * KiB;

/** Maximum size of a syscall message (kernel ring slot size). */
static constexpr uint32_t MAX_SYSC_MSG = 512;

/**
 * Exit codes the kernel reports for VPEs it had to terminate itself.
 * EXIT_RECLAIMED means the VPE misbehaved (stopped heartbeating on a
 * live core) and was reclaimed; EXIT_PE_DEAD means its PE died and no
 * failover was possible. VpeWait callers use the distinction to tell
 * "the program failed" from "the hardware failed".
 */
static constexpr int EXIT_RECLAIMED = -2;
static constexpr int EXIT_PE_DEAD = -3;
/**
 * Slots of the kernel's syscall ring. Every VPE gets one credit, so up
 * to KSYSC_SLOTS VPEs can have a syscall in flight (including deferred
 * replies such as VpeWait, which hold their slot until answered).
 */
static constexpr uint32_t KSYSC_SLOTS = 64;

// ---------------------------------------------------------------------
// System calls.
// ---------------------------------------------------------------------

/** Syscall opcodes. Every request starts with one as uint64. */
enum class Syscall : uint64_t
{
    Noop,         //!< { } -> { Error } (the Fig. 3 null syscall)
    CreateVpe,    //!< { dstSel, mgateSel, name, peType, attr }
                  //!< -> { Error }
    VpeStart,     //!< { vpeSel } -> { Error }
    VpeWait,      //!< { vpeSel } -> { Error, exitcode } (deferred)
    VpeExit,      //!< { exitcode } -> no reply
    CreateRgate,  //!< { dstSel, slots, slotSize } -> { Error }
    CreateSgate,  //!< { dstSel, rgateSel, label, credits } -> { Error }
    ReqMem,       //!< { dstSel, size, perms } -> { Error }
    DeriveMem,    //!< { srcSel, dstSel, off, size, perms } -> { Error }
    Activate,     //!< { capSel, ep, bufAddr } -> { Error } (may defer)
    Exchange,     //!< { vpeSel, srcStart, count, dstStart, obtain }
                  //!< -> { Error }
    CreateSrv,    //!< { dstSel, rgateSel, name } -> { Error }
    OpenSess,     //!< { dstSel, name, arg } -> { Error } (deferred)
    ExchangeSess, //!< { sessSel, obtain, dstStart, count, args... }
                  //!< -> { Error, args... } (deferred)
    Revoke,       //!< { capSel, own } -> { Error }
    Heartbeat,    //!< { } -> { Error } (watchdog liveness, Sec. 3.3)
    Yield,        //!< { } -> { Error } (cooperative deschedule request:
                  //!< after the reply, the kernel may switch the PE to
                  //!< another VPE of its run queue)
    QuerySrv,     //!< { name } -> { Error, groupSize } (distfs: stripe
                  //!< count of a service group; 1 for a plain service)
    COUNT,
};

/** Stable names of the syscalls (trace/metric labels), in opcode order. */
inline constexpr OpName<Syscall> SYSCALL_NAMES[] = {
    {Syscall::Noop, "Noop"},
    {Syscall::CreateVpe, "CreateVpe"},
    {Syscall::VpeStart, "VpeStart"},
    {Syscall::VpeWait, "VpeWait"},
    {Syscall::VpeExit, "VpeExit"},
    {Syscall::CreateRgate, "CreateRgate"},
    {Syscall::CreateSgate, "CreateSgate"},
    {Syscall::ReqMem, "ReqMem"},
    {Syscall::DeriveMem, "DeriveMem"},
    {Syscall::Activate, "Activate"},
    {Syscall::Exchange, "Exchange"},
    {Syscall::CreateSrv, "CreateSrv"},
    {Syscall::OpenSess, "OpenSess"},
    {Syscall::ExchangeSess, "ExchangeSess"},
    {Syscall::Revoke, "Revoke"},
    {Syscall::Heartbeat, "Heartbeat"},
    {Syscall::Yield, "Yield"},
    {Syscall::QuerySrv, "QuerySrv"},
};
static_assert(opTableCoversAll(SYSCALL_NAMES));

/** Capability-exchange direction. */
enum class ExchangeOp : uint64_t
{
    Delegate,
    Obtain,
};

/** PE-type request for CreateVpe (mirrors PeType without the include). */
enum class PeTypeReq : uint64_t
{
    General,
    Accelerator,
};

// ---------------------------------------------------------------------
// Service protocol: messages the kernel sends to a registered service
// (Sec. 4.5.3: the channel is created at service registration).
// ---------------------------------------------------------------------

enum class ServiceOp : uint64_t
{
    Open,     //!< { Open, arg } -> { Error, ident }
    Obtain,   //!< { Obtain, ident, argc, args... }
              //!< -> { Error, srvSels..., args... }
    Delegate, //!< { Delegate, ident, srvSels..., args... } -> { Error }
    Close,    //!< { Close, ident } -> { Error }
    Shutdown, //!< { Shutdown } -> { Error }
};

/** Maximum capability selectors in one exchange. */
static constexpr uint32_t MAX_EXCHG_CAPS = 8;
/** Maximum extra argument words in a session exchange. */
static constexpr uint32_t MAX_EXCHG_ARGS = 8;

// ---------------------------------------------------------------------
// Multi-kernel protocol: messages between kernel instances when the PE
// grid is partitioned into kernel domains (Sec. 7's "multiple kernels"
// future work). Inter-kernel traffic uses ordinary DTU messages, just
// like syscalls and the kernel<->service channels.
// ---------------------------------------------------------------------

/**
 * VPE ids are domain-tagged: kernel k allocates ids in
 * [k * VPE_DOMAIN_STRIDE + 1, (k+1) * VPE_DOMAIN_STRIDE), so every id is
 * globally unique and names its owning kernel. A single-kernel machine
 * allocates from domain 0, which keeps its ids identical to before.
 */
static constexpr vpeid_t VPE_DOMAIN_STRIDE = 1u << 20;

/** The kernel domain that owns VPE @p id. */
inline uint32_t
domainOfVpe(vpeid_t id)
{
    return id / VPE_DOMAIN_STRIDE;
}

/** Inter-kernel request opcodes. Every request starts with one as u64. */
enum class IkOp : uint64_t
{
    AnnounceSrv, //!< { name, domain } -> { Error }
    CreateVpe,   //!< { name, peType, attr } ->
                 //!< { Error, vpeId, pe, freePesAfter }
    VpeStart,    //!< { vpeId } -> { Error }
    VpeWait,     //!< { vpeId } -> { Error, exitcode } (deferred)
    OpenSess,    //!< { name, arg } -> { Error, ident } (deferred)
    SessExchange,//!< { name, ident, obtain, count, argc, args... } ->
                 //!< { Error, numCaps, caps..., numArgs, args... }
    DelegateCaps,//!< { dstVpeId, dstStart, count, caps... } -> { Error }
    PeLease,     //!< { peType, attr } -> { Error, pe } (cross-domain
                 //!< migration: borrow a free PE from a peer kernel; the
                 //!< borrower keeps VPE ownership and manages the PE via
                 //!< ext commands)
    PeRelease,   //!< { pe } -> { Error } (return a leased PE)
    CapsRehome,  //!< { oldNode, gen, newNode } -> { Error } (a VPE moved:
                 //!< repoint shadow rgates that matched its old home)
    COUNT,
};

/** Stable names of the inter-kernel requests, in opcode order. */
inline constexpr OpName<IkOp> IK_OP_NAMES[] = {
    {IkOp::AnnounceSrv, "AnnounceSrv"},
    {IkOp::CreateVpe, "CreateVpe"},
    {IkOp::VpeStart, "VpeStart"},
    {IkOp::VpeWait, "VpeWait"},
    {IkOp::OpenSess, "OpenSess"},
    {IkOp::SessExchange, "SessExchange"},
    {IkOp::DelegateCaps, "DelegateCaps"},
    {IkOp::PeLease, "PeLease"},
    {IkOp::PeRelease, "PeRelease"},
    {IkOp::CapsRehome, "CapsRehome"},
};
static_assert(opTableCoversAll(IK_OP_NAMES));

/** Slot size of the inter-kernel rings (requests and replies). */
static constexpr uint32_t IK_MSG_SIZE = 512;
/**
 * Slots of each kernel's inter-kernel request ring. Deferred requests
 * (VpeWait, session calls) hold their slot until answered; the per-peer
 * software credits below keep the sum of in-flight requests under the
 * ring capacity (3 peers x 8 credits < 32 slots).
 */
static constexpr uint32_t IK_SLOTS = 32;
/** Software credits per peer kernel (requests in flight to one peer). */
static constexpr uint32_t IK_CREDITS = 8;

} // namespace kif
} // namespace m3

#endif // M3_KERNEL_KIF_HH
