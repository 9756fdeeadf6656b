/**
 * @file
 * Fundamental type aliases and constants shared by every subsystem of the
 * M3 reproduction: cycle counts, identifiers for PEs / endpoints / VPEs /
 * capabilities, and the global-offset type used for DRAM addresses.
 */

#ifndef M3_BASE_TYPES_HH
#define M3_BASE_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace m3
{

/** Simulated time, measured in core clock cycles. */
using Cycles = uint64_t;

/** Identifier of a processing element (PE) within the platform. */
using peid_t = uint32_t;

/** Identifier of a DTU endpoint within one PE. */
using epid_t = uint32_t;

/** Identifier of a virtual PE (VPE), assigned by the kernel. */
using vpeid_t = uint32_t;

/** Selector of a capability within a VPE's capability table. */
using capsel_t = uint32_t;

/**
 * The label carried in every message header. Chosen by the receiver when a
 * channel is created and unforgeable by the sender (Sec. 4.4.2 of the
 * paper); typically the address of the receiver-side object.
 */
using label_t = uint64_t;

/** A global offset into the platform's DRAM. */
using goff_t = uint64_t;

/** An address within a PE-local scratchpad memory (SPM). */
using spmaddr_t = uint32_t;

/**
 * Read-only bytes that several owners hold at once, e.g. file contents
 * that many m3fs images and simulated memories refer to without copying.
 */
using SharedBytes = std::shared_ptr<const std::vector<uint8_t>>;

/** Invalid-value sentinels. */
static constexpr peid_t INVALID_PE = std::numeric_limits<peid_t>::max();
static constexpr epid_t INVALID_EP = std::numeric_limits<epid_t>::max();
static constexpr vpeid_t INVALID_VPE = std::numeric_limits<vpeid_t>::max();
static constexpr capsel_t INVALID_SEL = std::numeric_limits<capsel_t>::max();
static constexpr goff_t INVALID_GOFF = std::numeric_limits<goff_t>::max();

/** Size constants. */
static constexpr size_t KiB = 1024;
static constexpr size_t MiB = 1024 * KiB;

/** Default number of DTU endpoints per PE (the prototype platform). */
static constexpr epid_t EP_COUNT = 8;

/** Hard ceiling on per-PE endpoints; register files are sized for it.
 *  A PE's actual count is a platform parameter (PeDesc::epCount):
 *  data-plane-heavy machines provision wider DTUs. */
static constexpr epid_t MAX_EP_COUNT = 16;

/** Size of the per-PE scratchpad for data (the simulator version). */
static constexpr size_t SPM_DATA_SIZE = 64 * KiB;

/** Size of the per-PE scratchpad for code (modelled for load costs only). */
static constexpr size_t SPM_CODE_SIZE = 64 * KiB;

} // namespace m3

#endif // M3_BASE_TYPES_HH
