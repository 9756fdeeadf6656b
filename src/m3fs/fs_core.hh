/**
 * @file
 * Core m3fs logic: superblock, bitmaps, inodes, extents and directories,
 * implemented over an abstract block-access interface so that the same
 * code serves three users:
 *  - the host-side image builder (direct DRAM access, no cost),
 *  - the m3fs server (access through a block cache over a memory gate,
 *    i.e. real DTU transfers),
 *  - the filesystem checker used by the tests.
 */

#ifndef M3_M3FS_FS_CORE_HH
#define M3_M3FS_FS_CORE_HH

#include <string>
#include <vector>

#include "base/errors.hh"
#include "m3fs/fs_defs.hh"

namespace m3
{
namespace m3fs
{

/**
 * Access to the filesystem image by byte range. Callers may pass any
 * range, but the server backs this with its block cache, which costs
 * cycles per block it fills or writes back; FsCore therefore reads its
 * bitmaps and directories one block at a time (see FsCore::bitFind).
 */
class BlockAccess
{
  public:
    virtual ~BlockAccess() = default;

    /** Read @p len bytes at image offset @p off. */
    virtual void read(goff_t off, void *dst, size_t len) = 0;

    /** Write @p len bytes at image offset @p off. */
    virtual void write(goff_t off, const void *src, size_t len) = 0;

    /**
     * The @p len bytes at image offset @p off, which lie in one block,
     * for reading in place: valid until the next call on this access.
     * It touches the block as read() would; accesses that hold the
     * bytes return them where they are, and by default they are read()
     * into @p scratch (at least @p len bytes), which is returned.
     */
    virtual const uint8_t *
    peek(goff_t off, size_t len, void *scratch)
    {
        read(off, scratch, len);
        return static_cast<const uint8_t *>(scratch);
    }

    /**
     * Place @p src[srcOff, srcOff+len) at image offset @p off. Accesses
     * whose memory can refer to shared bytes do so instead of copying
     * them; by default this is a write().
     */
    virtual void
    share(goff_t off, const SharedBytes &src, size_t srcOff, size_t len)
    {
        write(off, src->data() + srcOff, len);
    }

    /**
     * Set @p len bytes at image offset @p off to zero. By default this
     * is a write() of zeros; a direct DRAM access leaves untouched
     * memory alone.
     */
    virtual void
    zero(goff_t off, size_t len)
    {
        const std::vector<uint8_t> zeros(len, 0);
        write(off, zeros.data(), len);
    }
};

/** Result of a path resolution. */
struct ResolveResult
{
    inodeno_t ino = INVALID_INO;
    inodeno_t parent = INVALID_INO;
    std::string leafName;
    uint32_t components = 0;  //!< path components walked (for costing)
};

/** The filesystem engine. */
class FsCore
{
  public:
    explicit FsCore(BlockAccess &access);

    /** Format a fresh filesystem. */
    static void format(BlockAccess &access, uint32_t totalBlocks,
                       uint32_t totalInodes,
                       uint32_t blockSize = DEFAULT_BLOCK_SIZE);

    /** (Re)load the superblock; false if the magic is wrong. */
    bool load();

    const SuperBlock &superBlock() const { return sb; }

    // --- bitmaps (see the touch-order rule below) ----------------------
    /**
     * First index in [@p from, @p to) of bitmap @p bmStart whose bit is
     * @p value, or @p to. Issues one peek per bitmap block the range
     * covers, of the bytes in range only, in ascending block order,
     * and stops in the block holding the bit it finds. Skips whole
     * 64-bit words without a bit of @p value.
     */
    uint32_t bitFind(blockno_t bmStart, uint32_t from, uint32_t to,
                     bool value);

    /** Set (@p value true) or clear @p len bits of bitmap @p bmStart
     *  from @p from, with one read and one write per bitmap block; the
     *  whole bytes in between are filled at once. */
    void bitRange(blockno_t bmStart, uint32_t from, uint32_t len,
                  bool value);

    // --- inodes -------------------------------------------------------
    Inode getInode(inodeno_t ino);
    void putInode(const Inode &inode);
    Error allocInode(uint32_t mode, Inode &out);
    void freeInode(inodeno_t ino);

    // --- extents ------------------------------------------------------
    /** The idx-th extent of the inode (direct or indirect). */
    Extent getExtent(const Inode &inode, uint32_t idx);

    /**
     * Append up to @p blocks blocks to the file, as one contiguous
     * extent of at most @p maxRun blocks (next-fit over the block
     * bitmap). Adjacent extents are merged when possible to keep
     * fragmentation low.
     * @return the extent actually allocated (len 0 when out of space)
     */
    Extent appendBlocks(Inode &inode, uint32_t blocks, uint32_t maxRun);

    /** Shrink the allocation to cover exactly @p newSize bytes. */
    void truncate(Inode &inode, uint64_t newSize);

    /** Free all blocks of the inode. */
    void freeBlocks(Inode &inode);

    // --- directories --------------------------------------------------
    /** Resolve a path to an inode (and its parent). */
    ResolveResult resolve(const std::string &path);

    /** Image offset of directory entry @p idx (0 when out of range). */
    goff_t dirEntryOff(const Inode &dir, uint64_t idx);

    Error dirLookup(inodeno_t dir, const std::string &name,
                    inodeno_t &out);
    Error dirInsert(inodeno_t dir, const std::string &name, inodeno_t ino);
    Error dirRemove(inodeno_t dir, const std::string &name);
    Error dirList(inodeno_t dir, std::vector<std::pair<inodeno_t,
                  std::string>> &out);
    bool dirEmpty(inodeno_t dir);

    // --- whole-file helpers (image builder, tests) ---------------------
    Error createFile(const std::string &path, const SharedBytes &data,
                     uint32_t blocksPerExtent);
    Error createDir(const std::string &path);
    Error readFile(const std::string &path, std::vector<uint8_t> &out);

    // --- data access ---------------------------------------------------
    /** Image offset of a data block. */
    goff_t blockOff(blockno_t b) const;

    /** Raw image access (for data reads/writes through the core). */
    BlockAccess &access() { return ba; }

    // --- consistency check ---------------------------------------------
    /**
     * Filesystem check: walks the directory tree from the root, verifies
     * inode/extent/bitmap consistency and directory sanity.
     * @param report receives human-readable findings
     * @return true if the filesystem is consistent
     */
    bool check(std::string &report);

  private:
    /*
     * The metadata walks below read whole blocks, but they touch the
     * same blocks in the same order as a walk by single bits and
     * entries would. The server's BlockCache charges cycles only for
     * misses and write-backs, so this keeps every simulated cycle:
     * repeating a sequence of touches right after itself (a bit's
     * bitmap block; an entry's extent-table and directory blocks) only
     * hits, and leaves the LRU order as it was while the sequence fits
     * in the cache, so only the hit count drops. Two further
     * rules keep the misses and write-backs the same: write only the
     * bytes a bit-wise walk would have written (never a whole block
     * that a walk by bits would have filled first), and read before
     * writing. A loop that interleaves touches of two blocks must stay
     * as it is (freeBlocks' double-indirect walk calls freeRun between
     * reads of its table).
     *
     * bitFind and walkDir read in place: a peek() per block touches it
     * once, as a read() of the same bytes would, and they scan the
     * block where the access holds it (the cache's buffer, the DRAM's
     * store) instead of a copy.
     */

    bool bitGet(blockno_t bmStart, uint32_t idx)
    {
        return bitFind(bmStart, idx, idx + 1, true) == idx;
    }

    /**
     * Walk directory @p dir one block at a time: one dirEntryOff and
     * one peek of the block's live entries per block. @p visit(off,
     * entry) sees each entry in order, in place, and returns true to
     * stop; it may write the entry it stops at.
     * @return true if @p visit stopped the walk
     */
    template <typename Visit>
    bool walkDir(const Inode &dir, Visit visit);

    void saveSb();
    void setExtent(Inode &inode, uint32_t idx, const Extent &e);
    blockno_t allocZeroedMetaBlock();
    Extent allocRun(uint32_t maxLen);
    void freeRun(blockno_t start, uint32_t len);

    BlockAccess &ba;
    SuperBlock sb{};
    /** One block of bitmap bytes (bitRange's buffer) and of directory
     *  entries: the walks' peek() scratch, sized by load() so they
     *  allocate nothing. */
    std::vector<uint8_t> bitBuf;
    std::vector<DirEntry> dirBuf;
};

} // namespace m3fs
} // namespace m3

#endif // M3_M3FS_FS_CORE_HH
