#include "m3fs/fs_core.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>

#include "base/logging.hh"

namespace m3
{
namespace m3fs
{

FsCore::FsCore(BlockAccess &access) : ba(access)
{
}

void
FsCore::format(BlockAccess &access, uint32_t totalBlocks,
               uint32_t totalInodes, uint32_t blockSize)
{
    auto blocksFor = [&](uint64_t bytes) {
        return static_cast<uint32_t>((bytes + blockSize - 1) / blockSize);
    };

    SuperBlock sb{};
    sb.magic = FS_MAGIC;
    sb.blockSize = blockSize;
    sb.totalBlocks = totalBlocks;
    sb.totalInodes = totalInodes;
    sb.ibmStart = 1;
    sb.ibmBlocks = blocksFor((totalInodes + 7) / 8);
    sb.bbmStart = sb.ibmStart + sb.ibmBlocks;
    sb.bbmBlocks = blocksFor((totalBlocks + 7) / 8);
    sb.itabStart = sb.bbmStart + sb.bbmBlocks;
    sb.itabBlocks = blocksFor(static_cast<uint64_t>(totalInodes) *
                              INODE_SIZE);
    sb.dataStart = sb.itabStart + sb.itabBlocks;
    sb.rootIno = 0;
    sb.allocHint = sb.dataStart;

    if (sb.dataStart >= totalBlocks)
        fatal("m3fs format: metadata exceeds %u blocks", totalBlocks);

    // Zero all metadata blocks.
    access.zero(0, static_cast<size_t>(sb.dataStart) * blockSize);

    access.write(0, &sb, sizeof(sb));

    // Mark all metadata blocks as used in the block bitmap.
    FsCore core(access);
    if (!core.load())
        panic("freshly formatted filesystem failed to load");
    core.bitRange(sb.bbmStart, 0, sb.dataStart, true);

    // Create the root directory (inode 0, no parent entry).
    Inode root{};
    core.bitRange(sb.ibmStart, 0, 1, true);
    root.ino = 0;
    root.mode = 0x4000;  // M_DIR
    root.links = 1;
    core.putInode(root);
    core.saveSb();
}

bool
FsCore::load()
{
    ba.read(0, &sb, sizeof(sb));
    if (!sb.valid())
        return false;
    bitBuf.resize(sb.blockSize);
    dirBuf.resize(sb.blockSize / DIRENTRY_SIZE);
    return true;
}

void
FsCore::saveSb()
{
    ba.write(0, &sb, sizeof(sb));
}

goff_t
FsCore::blockOff(blockno_t b) const
{
    return static_cast<goff_t>(b) * sb.blockSize;
}

// ---------------------------------------------------------------------
// Bitmaps.
// ---------------------------------------------------------------------

namespace
{

/**
 * First bit in [@p from, @p to) of the bits at @p p (bit i is bit i % 8
 * of byte i / 8, as in the bitmaps) that is @p value, or @p to. Reads
 * whole 64-bit words, and none of the bytes past bit @p to - 1's.
 */
uint64_t
findBit(const uint8_t *p, uint64_t from, uint64_t to, bool value)
{
    static_assert(std::endian::native == std::endian::little,
                  "bit i of a word is bit i % 8 of its byte i / 8");
    const uint64_t flip = value ? 0 : ~uint64_t{0};
    const uint64_t bytes = (to + 7) / 8;
    for (uint64_t i = from; i < to;) {
        const uint64_t byte = i / 8;
        const size_t n =
            static_cast<size_t>(std::min<uint64_t>(8, bytes - byte));
        uint64_t word = 0;
        std::memcpy(&word, p + byte, n);
        // Now looking for a one. Looking for zeros, the bytes past n
        // read as ones too, but they lie past @p to.
        word = (word ^ flip) >> (i % 8);
        if (word)
            return std::min(to, i + std::countr_zero(word));
        i = (byte + n) * 8;
    }
    return to;
}

} // anonymous namespace

uint32_t
FsCore::bitFind(blockno_t bmStart, uint32_t from, uint32_t to, bool value)
{
    const uint64_t bitsPerBlock = uint64_t{sb.blockSize} * 8;
    for (uint64_t pos = from; pos < to; ) {
        uint64_t end = std::min<uint64_t>(
            to, (pos / bitsPerBlock + 1) * bitsPerBlock);
        uint64_t lo = pos / 8;
        const uint8_t *bits = ba.peek(blockOff(bmStart) + lo,
                                      (end - 1) / 8 + 1 - lo, bitBuf.data());
        const uint64_t hit = findBit(bits, pos - lo * 8, end - lo * 8, value);
        if (hit < end - lo * 8)
            return static_cast<uint32_t>(lo * 8 + hit);
        pos = end;
    }
    return to;
}

void
FsCore::bitRange(blockno_t bmStart, uint32_t from, uint32_t len,
                 bool value)
{
    const uint64_t bitsPerBlock = uint64_t{sb.blockSize} * 8;
    const uint64_t to = uint64_t{from} + len;
    for (uint64_t pos = from; pos < to; ) {
        uint64_t end = std::min(to, (pos / bitsPerBlock + 1) * bitsPerBlock);
        uint64_t lo = pos / 8;
        size_t bytes = (end - 1) / 8 + 1 - lo;
        goff_t off = blockOff(bmStart) + lo;
        // Read first: the bytes at the range's ends keep their other
        // bits, and a range covering a whole block must not write it
        // unread (see the touch-order rule in fs_core.hh).
        ba.read(off, bitBuf.data(), bytes);
        auto set = [&](uint64_t i) {
            const uint8_t bit = static_cast<uint8_t>(1u << (i % 8));
            uint8_t &byte = bitBuf[i / 8 - lo];
            byte = value ? byte | bit : byte & static_cast<uint8_t>(~bit);
        };
        uint64_t i = pos;
        for (; i < end && i % 8; ++i)
            set(i);
        const uint64_t whole = (end - i) / 8;
        std::memset(bitBuf.data() + (i / 8 - lo), value ? 0xff : 0, whole);
        for (i += whole * 8; i < end; ++i)
            set(i);
        ba.write(off, bitBuf.data(), bytes);
        pos = end;
    }
}

// ---------------------------------------------------------------------
// Inodes.
// ---------------------------------------------------------------------

Inode
FsCore::getInode(inodeno_t ino)
{
    if (ino >= sb.totalInodes)
        panic("inode %u out of range", ino);
    Inode inode{};
    ba.read(blockOff(sb.itabStart) +
                static_cast<goff_t>(ino) * INODE_SIZE,
            &inode, sizeof(inode));
    return inode;
}

void
FsCore::putInode(const Inode &inode)
{
    ba.write(blockOff(sb.itabStart) +
                 static_cast<goff_t>(inode.ino) * INODE_SIZE,
             &inode, sizeof(inode));
}

Error
FsCore::allocInode(uint32_t mode, Inode &out)
{
    inodeno_t i = bitFind(sb.ibmStart, 0, sb.totalInodes, false);
    if (i == sb.totalInodes)
        return Error::NoSpace;
    bitRange(sb.ibmStart, i, 1, true);
    out = Inode{};
    out.ino = i;
    out.mode = mode;
    out.links = 1;
    putInode(out);
    return Error::None;
}

void
FsCore::freeInode(inodeno_t ino)
{
    bitRange(sb.ibmStart, ino, 1, false);
}

// ---------------------------------------------------------------------
// Extents.
// ---------------------------------------------------------------------

Extent
FsCore::getExtent(const Inode &inode, uint32_t idx)
{
    if (idx >= inode.extents)
        return Extent{};
    if (idx < INODE_DIRECT)
        return inode.direct[idx];

    const uint32_t perBlock = sb.blockSize / sizeof(Extent);
    uint32_t iidx = idx - INODE_DIRECT;
    if (iidx < perBlock) {
        if (!inode.indirect)
            return Extent{};
        Extent e{};
        ba.read(blockOff(inode.indirect) + iidx * sizeof(Extent), &e,
                sizeof(e));
        return e;
    }

    // Double-indirect level.
    iidx -= perBlock;
    const uint32_t perPtrBlock = sb.blockSize / sizeof(blockno_t);
    uint32_t outer = iidx / perBlock;
    uint32_t inner = iidx % perBlock;
    if (!inode.dindirect || outer >= perPtrBlock)
        return Extent{};
    blockno_t tab = 0;
    ba.read(blockOff(inode.dindirect) + outer * sizeof(blockno_t), &tab,
            sizeof(tab));
    if (!tab)
        return Extent{};
    Extent e{};
    ba.read(blockOff(tab) + inner * sizeof(Extent), &e, sizeof(e));
    return e;
}

blockno_t
FsCore::allocZeroedMetaBlock()
{
    Extent run = allocRun(1);
    if (run.len == 0)
        panic("out of blocks for an extent table");
    std::vector<uint8_t> zero(sb.blockSize, 0);
    ba.write(blockOff(run.start), zero.data(), sb.blockSize);
    return run.start;
}

void
FsCore::setExtent(Inode &inode, uint32_t idx, const Extent &e)
{
    if (idx < INODE_DIRECT) {
        inode.direct[idx] = e;
        return;
    }

    const uint32_t perBlock = sb.blockSize / sizeof(Extent);
    uint32_t iidx = idx - INODE_DIRECT;
    if (iidx < perBlock) {
        if (!inode.indirect)
            inode.indirect = allocZeroedMetaBlock();
        ba.write(blockOff(inode.indirect) + iidx * sizeof(Extent), &e,
                 sizeof(e));
        return;
    }

    iidx -= perBlock;
    const uint32_t perPtrBlock = sb.blockSize / sizeof(blockno_t);
    uint32_t outer = iidx / perBlock;
    uint32_t inner = iidx % perBlock;
    if (outer >= perPtrBlock)
        panic("file exceeds the maximum extent count (%u)", idx);
    if (!inode.dindirect)
        inode.dindirect = allocZeroedMetaBlock();
    blockno_t tab = 0;
    ba.read(blockOff(inode.dindirect) + outer * sizeof(blockno_t), &tab,
            sizeof(tab));
    if (!tab) {
        tab = allocZeroedMetaBlock();
        ba.write(blockOff(inode.dindirect) + outer * sizeof(blockno_t),
                 &tab, sizeof(tab));
    }
    ba.write(blockOff(tab) + inner * sizeof(Extent), &e, sizeof(e));
}

Extent
FsCore::allocRun(uint32_t maxLen)
{
    // Next-fit: scan from the allocation hint for a free block, looking
    // at no more than totalBlocks bits and wrapping to dataStart at the
    // end of the disk.
    const uint32_t total = sb.totalBlocks;
    blockno_t pos = sb.allocHint;
    for (uint32_t budget = total; budget > 0; ) {
        if (pos >= total)
            pos = sb.dataStart;
        uint32_t end = pos + std::min(budget, total - pos);
        blockno_t start = bitFind(sb.bbmStart, pos, end, false);
        budget -= start - pos;
        pos = start;
        if (start == end)
            continue;
        // Extend the free run as far as possible (up to maxLen).
        uint32_t len = bitFind(sb.bbmStart, start,
                               start + std::min(maxLen, total - start),
                               true) - start;
        bitRange(sb.bbmStart, start, len, true);
        sb.allocHint = start + len;
        saveSb();
        return Extent{start, len};
    }
    return Extent{};
}

void
FsCore::freeRun(blockno_t start, uint32_t len)
{
    bitRange(sb.bbmStart, start, len, false);
    if (start < sb.allocHint) {
        sb.allocHint = start;
        saveSb();
    }
}

Extent
FsCore::appendBlocks(Inode &inode, uint32_t blocks, uint32_t maxRun)
{
    Extent e = allocRun(std::min(blocks, maxRun));
    if (e.len == 0)
        return e;

    // Merge with the last extent when the new run is adjacent: this is
    // what keeps sequentially written files in few extents (Sec. 5.5).
    if (inode.extents > 0) {
        Extent last = getExtent(inode, inode.extents - 1);
        if (last.start + last.len == e.start) {
            last.len += e.len;
            setExtent(inode, inode.extents - 1, last);
            putInode(inode);
            return e;
        }
    }
    setExtent(inode, inode.extents, e);
    inode.extents++;
    putInode(inode);
    return e;
}

void
FsCore::truncate(Inode &inode, uint64_t newSize)
{
    uint64_t needBlocks = (newSize + sb.blockSize - 1) / sb.blockSize;
    uint64_t have = 0;
    uint32_t keepExtents = 0;
    for (uint32_t idx = 0; idx < inode.extents; ++idx) {
        Extent e = getExtent(inode, idx);
        if (have >= needBlocks) {
            freeRun(e.start, e.len);
            continue;
        }
        if (have + e.len <= needBlocks) {
            have += e.len;
            keepExtents = idx + 1;
            continue;
        }
        uint32_t keep = static_cast<uint32_t>(needBlocks - have);
        freeRun(e.start + keep, e.len - keep);
        setExtent(inode, idx, Extent{e.start, keep});
        have += keep;
        keepExtents = idx + 1;
    }
    inode.extents = keepExtents;
    inode.size = newSize;
    putInode(inode);
}

void
FsCore::freeBlocks(Inode &inode)
{
    for (uint32_t i = 0; i < inode.extents; ++i) {
        Extent e = getExtent(inode, i);
        if (e.len)
            freeRun(e.start, e.len);
    }
    if (inode.indirect) {
        freeRun(inode.indirect, 1);
        inode.indirect = 0;
    }
    if (inode.dindirect) {
        // One read per table entry, not one per table: the reads
        // interleave with freeRun's bitmap touches, and reading the
        // table up front would change the cache's LRU order.
        const uint32_t perPtrBlock = sb.blockSize / sizeof(blockno_t);
        for (uint32_t i = 0; i < perPtrBlock; ++i) {
            blockno_t tab = 0;
            ba.read(blockOff(inode.dindirect) + i * sizeof(blockno_t),
                    &tab, sizeof(tab));
            if (tab)
                freeRun(tab, 1);
        }
        freeRun(inode.dindirect, 1);
        inode.dindirect = 0;
    }
    inode.extents = 0;
    inode.size = 0;
    putInode(inode);
}

// ---------------------------------------------------------------------
// Directories.
// ---------------------------------------------------------------------

namespace
{

/** Split a path into components, ignoring empty ones. */
std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    size_t pos = 0;
    while (pos < path.size()) {
        size_t next = path.find('/', pos);
        if (next == std::string::npos)
            next = path.size();
        if (next > pos)
            parts.push_back(path.substr(pos, next - pos));
        pos = next + 1;
    }
    return parts;
}

/** Whether @p de is a live entry called @p name. Compared byte by
 *  byte in place: most entries differ in their first bytes. */
bool
named(const DirEntry &de, const std::string &name)
{
    if (de.ino == INVALID_INO || de.nameLen != name.size())
        return false;
    for (size_t i = 0; i < name.size(); ++i) {
        if (de.name[i] != name[i])
            return false;
    }
    return true;
}

} // anonymous namespace

goff_t
FsCore::dirEntryOff(const Inode &dir, uint64_t idx)
{
    const uint64_t perBlock = sb.blockSize / DIRENTRY_SIZE;
    uint64_t blockIdx = idx / perBlock;
    uint64_t seen = 0;
    for (uint32_t e = 0; e < dir.extents; ++e) {
        Extent ext = getExtent(dir, e);
        if (blockIdx < seen + ext.len) {
            blockno_t b = ext.start +
                          static_cast<blockno_t>(blockIdx - seen);
            return blockOff(b) + (idx % perBlock) * DIRENTRY_SIZE;
        }
        seen += ext.len;
    }
    return 0;  // out of range (offset 0 is the superblock, never valid)
}

ResolveResult
FsCore::resolve(const std::string &path)
{
    ResolveResult res;
    std::vector<std::string> parts = splitPath(path);
    res.components = static_cast<uint32_t>(parts.size());

    inodeno_t cur = sb.rootIno;
    inodeno_t parent = INVALID_INO;
    for (size_t i = 0; i < parts.size(); ++i) {
        parent = cur;
        inodeno_t next = INVALID_INO;
        if (dirLookup(cur, parts[i], next) != Error::None) {
            if (i + 1 == parts.size()) {
                // Leaf missing: report the parent for creation.
                res.parent = parent;
                res.leafName = parts[i];
                return res;
            }
            res.parent = INVALID_INO;
            return res;
        }
        cur = next;
    }
    res.ino = cur;
    res.parent = parent;
    res.leafName = parts.empty() ? "" : parts.back();
    return res;
}

template <typename Visit>
bool
FsCore::walkDir(const Inode &dir, Visit visit)
{
    const uint64_t perBlock = sb.blockSize / DIRENTRY_SIZE;
    const uint64_t entries = dir.size / DIRENTRY_SIZE;
    for (uint64_t first = 0; first < entries; first += perBlock) {
        goff_t off = dirEntryOff(dir, first);
        if (!off)
            break;
        uint64_t n = std::min(perBlock, entries - first);
        const auto *block = reinterpret_cast<const DirEntry *>(
            ba.peek(off, n * DIRENTRY_SIZE, dirBuf.data()));
        for (uint64_t j = 0; j < n; ++j) {
            if (visit(off + j * DIRENTRY_SIZE, block[j]))
                return true;
        }
    }
    return false;
}

Error
FsCore::dirLookup(inodeno_t dir, const std::string &name, inodeno_t &out)
{
    Inode d = getInode(dir);
    if (!(d.mode & 0x4000))
        return Error::IsNoDirectory;
    bool found = walkDir(d, [&](goff_t, const DirEntry &de) {
        if (!named(de, name))
            return false;
        out = de.ino;
        return true;
    });
    return found ? Error::None : Error::NoSuchFile;
}

Error
FsCore::dirInsert(inodeno_t dir, const std::string &name, inodeno_t ino)
{
    if (name.size() > MAX_NAME_LEN)
        return Error::InvalidArgs;
    Inode d = getInode(dir);
    if (!(d.mode & 0x4000))
        return Error::IsNoDirectory;

    uint64_t perBlock = sb.blockSize / DIRENTRY_SIZE;
    uint64_t entries = d.size / DIRENTRY_SIZE;

    DirEntry de{};
    de.ino = ino;
    de.nameLen = static_cast<uint8_t>(name.size());
    std::memset(de.name, 0, sizeof(de.name));
    std::memcpy(de.name, name.data(), name.size());

    // Reuse a free slot if there is one.
    bool reused = walkDir(d, [&](goff_t off, const DirEntry &cur) {
        if (cur.ino != INVALID_INO)
            return false;
        ba.write(off, &de, sizeof(de));
        return true;
    });
    if (reused)
        return Error::None;

    // Append: grow the directory by one entry (maybe one block).
    if (entries % perBlock == 0) {
        Extent e = appendBlocks(d, 1, 1);
        if (e.len == 0)
            return Error::NoSpace;
        // Initialise the new block with free slots.
        std::vector<DirEntry> free(perBlock);
        for (auto &f : free) {
            f.ino = INVALID_INO;
            f.nameLen = 0;
            std::memset(f.name, 0, sizeof(f.name));
        }
        ba.write(blockOff(e.start), free.data(),
                 perBlock * DIRENTRY_SIZE);
    }
    d.size = (entries + 1) * DIRENTRY_SIZE;
    goff_t off = dirEntryOff(d, entries);
    if (!off)
        return Error::NoSpace;
    ba.write(off, &de, sizeof(de));
    putInode(d);
    return Error::None;
}

Error
FsCore::dirRemove(inodeno_t dir, const std::string &name)
{
    Inode d = getInode(dir);
    if (!(d.mode & 0x4000))
        return Error::IsNoDirectory;
    bool removed = walkDir(d, [&](goff_t off, const DirEntry &cur) {
        if (!named(cur, name))
            return false;
        DirEntry de = cur;
        de.ino = INVALID_INO;
        ba.write(off, &de, sizeof(de));
        return true;
    });
    return removed ? Error::None : Error::NoSuchFile;
}

Error
FsCore::dirList(inodeno_t dir,
                std::vector<std::pair<inodeno_t, std::string>> &out)
{
    Inode d = getInode(dir);
    if (!(d.mode & 0x4000))
        return Error::IsNoDirectory;
    walkDir(d, [&](goff_t, const DirEntry &de) {
        if (de.ino != INVALID_INO)
            out.emplace_back(de.ino, std::string(de.name, de.nameLen));
        return false;
    });
    return Error::None;
}

bool
FsCore::dirEmpty(inodeno_t dir)
{
    std::vector<std::pair<inodeno_t, std::string>> entries;
    dirList(dir, entries);
    return entries.empty();
}

// ---------------------------------------------------------------------
// Whole-file helpers.
// ---------------------------------------------------------------------

Error
FsCore::createDir(const std::string &path)
{
    ResolveResult r = resolve(path);
    if (r.ino != INVALID_INO)
        return Error::FileExists;
    if (r.parent == INVALID_INO)
        return Error::NoSuchFile;
    Inode d{};
    Error e = allocInode(0x4000, d);
    if (e != Error::None)
        return e;
    return dirInsert(r.parent, r.leafName, d.ino);
}

Error
FsCore::createFile(const std::string &path, const SharedBytes &data,
                   uint32_t blocksPerExtent)
{
    ResolveResult r = resolve(path);
    if (r.ino != INVALID_INO)
        return Error::FileExists;
    if (r.parent == INVALID_INO)
        return Error::NoSuchFile;

    Inode f{};
    Error e = allocInode(0x8000, f);
    if (e != Error::None)
        return e;
    e = dirInsert(r.parent, r.leafName, f.ino);
    if (e != Error::None)
        return e;

    const size_t len = data->size();
    size_t written = 0;
    while (written < len) {
        uint32_t wantBlocks = static_cast<uint32_t>(
            (len - written + sb.blockSize - 1) / sb.blockSize);
        // Cap each allocation at blocksPerExtent so tests and the Fig. 4
        // bench can create files with a controlled extent layout. The
        // allocator merges adjacent runs, so fragment the file for real
        // by bumping the hint past a dummy gap block between extents.
        Extent ext = appendBlocks(f, std::min(wantBlocks, blocksPerExtent),
                                  blocksPerExtent);
        if (ext.len == 0)
            return Error::NoSpace;
        size_t chunk = std::min(len - written,
                                static_cast<size_t>(ext.len) *
                                    sb.blockSize);
        ba.share(blockOff(ext.start), data, written, chunk);
        written += chunk;
        if (written < len && blocksPerExtent < wantBlocks) {
            // Force a gap so the next extent is not mergeable.
            Extent gap = allocRun(1);
            (void)gap;
        }
    }
    f = getInode(f.ino);
    f.size = len;
    putInode(f);
    return Error::None;
}

Error
FsCore::readFile(const std::string &path, std::vector<uint8_t> &out)
{
    ResolveResult r = resolve(path);
    if (r.ino == INVALID_INO)
        return Error::NoSuchFile;
    Inode f = getInode(r.ino);
    out.resize(f.size);
    uint64_t done = 0;
    for (uint32_t i = 0; i < f.extents && done < f.size; ++i) {
        Extent e = getExtent(f, i);
        uint64_t chunk = std::min<uint64_t>(
            static_cast<uint64_t>(e.len) * sb.blockSize, f.size - done);
        ba.read(blockOff(e.start), out.data() + done, chunk);
        done += chunk;
    }
    return Error::None;
}

// ---------------------------------------------------------------------
// Filesystem check.
// ---------------------------------------------------------------------

bool
FsCore::check(std::string &report)
{
    report.clear();
    bool ok = true;
    auto complain = [&](const std::string &msg) {
        report += msg + "\n";
        ok = false;
    };

    if (!sb.valid()) {
        complain("bad superblock magic");
        return false;
    }

    std::vector<bool> blockUsed(sb.totalBlocks, false);
    for (blockno_t b = 0; b < sb.dataStart; ++b)
        blockUsed[b] = true;

    std::set<inodeno_t> seen;
    std::vector<inodeno_t> queue{sb.rootIno};
    while (!queue.empty()) {
        inodeno_t ino = queue.back();
        queue.pop_back();
        if (seen.count(ino))
            continue;
        seen.insert(ino);

        if (!bitGet(sb.ibmStart, ino))
            complain("inode " + std::to_string(ino) +
                     " reachable but not allocated");

        Inode inode = getInode(ino);
        if (inode.ino != ino && inode.mode != 0)
            complain("inode " + std::to_string(ino) + " has wrong id");

        uint64_t blocks = 0;
        for (uint32_t i = 0; i < inode.extents; ++i) {
            Extent e = getExtent(inode, i);
            if (e.len == 0) {
                complain("inode " + std::to_string(ino) +
                         " has empty extent " + std::to_string(i));
                continue;
            }
            for (uint32_t j = 0; j < e.len; ++j) {
                blockno_t b = e.start + j;
                if (b >= sb.totalBlocks) {
                    complain("extent block out of range");
                    continue;
                }
                if (blockUsed[b])
                    complain("block " + std::to_string(b) +
                             " multiply referenced");
                blockUsed[b] = true;
                if (!bitGet(sb.bbmStart, b))
                    complain("block " + std::to_string(b) +
                             " in use but free in bitmap");
            }
            blocks += e.len;
        }
        if (inode.indirect) {
            if (blockUsed[inode.indirect])
                complain("indirect block multiply referenced");
            blockUsed[inode.indirect] = true;
        }
        if (inode.dindirect) {
            if (blockUsed[inode.dindirect])
                complain("double-indirect block multiply referenced");
            blockUsed[inode.dindirect] = true;
            const uint32_t perPtrBlock = sb.blockSize / sizeof(blockno_t);
            for (uint32_t i = 0; i < perPtrBlock; ++i) {
                blockno_t tab = 0;
                ba.read(blockOff(inode.dindirect) +
                            i * sizeof(blockno_t),
                        &tab, sizeof(tab));
                if (tab) {
                    if (blockUsed[tab])
                        complain("extent table multiply referenced");
                    blockUsed[tab] = true;
                }
            }
        }
        if (inode.size > blocks * sb.blockSize)
            complain("inode " + std::to_string(ino) +
                     " size exceeds allocation");

        if (inode.mode & 0x4000) {
            std::vector<std::pair<inodeno_t, std::string>> entries;
            if (dirList(ino, entries) != Error::None) {
                complain("directory " + std::to_string(ino) +
                         " unreadable");
                continue;
            }
            for (auto &[child, name] : entries) {
                if (name.empty())
                    complain("empty name in directory " +
                             std::to_string(ino));
                queue.push_back(child);
            }
        }
    }

    return ok;
}

} // namespace m3fs
} // namespace m3
