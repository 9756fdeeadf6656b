/**
 * @file
 * Host-side filesystem image construction: formats a region of the
 * platform DRAM and populates it with directories and files before the
 * simulation starts (the equivalent of shipping a prepared disk image).
 * Also used by tests to inspect and fsck the image afterwards.
 */

#ifndef M3_M3FS_FS_IMAGE_HH
#define M3_M3FS_FS_IMAGE_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "mem/dram.hh"
#include "m3fs/fs_core.hh"

namespace m3
{
namespace m3fs
{

/** Direct (functional, cost-free) access to the image in DRAM. */
class DramAccess : public BlockAccess
{
  public:
    DramAccess(Dram &dram, goff_t base) : dram(dram), base(base) {}

    void
    read(goff_t off, void *dst, size_t len) override
    {
        dram.read(base + off, dst, len);
    }

    /** The DRAM's own bytes where no shared range overlaps them. */
    const uint8_t *
    peek(goff_t off, size_t len, void *scratch) override
    {
        return dram.peek(base + off, len, scratch);
    }

    void
    write(goff_t off, const void *src, size_t len) override
    {
        dram.write(base + off, src, len);
    }

    void
    share(goff_t off, const SharedBytes &src, size_t srcOff,
          size_t len) override
    {
        dram.share(base + off, src, srcOff, len);
    }

    void
    zero(goff_t off, size_t len) override
    {
        dram.zero(base + off, len);
    }

    /** Copy @p len bytes of @p from's image to the same offset of this
     *  one (see MemTarget::copy). */
    void
    copyFrom(const DramAccess &from, size_t len)
    {
        dram.copy(base, from.dram, from.base, len);
    }

  private:
    Dram &dram;
    goff_t base;
};

/** Description of a file to place into the image. */
struct FileSpec
{
    FileSpec(std::string path, SharedBytes data,
             uint32_t blocksPerExtent = 0xffffffff)
        : path(std::move(path)), data(std::move(data)),
          blocksPerExtent(blocksPerExtent)
    {}

    FileSpec(std::string path, std::vector<uint8_t> bytes,
             uint32_t blocksPerExtent = 0xffffffff)
        : FileSpec(std::move(path),
                   std::make_shared<const std::vector<uint8_t>>(
                       std::move(bytes)),
                   blocksPerExtent)
    {}

    std::string path;
    /** File contents; files with the same contents share one buffer,
     *  which the image's DRAM refers to instead of copying it. */
    SharedBytes data;
    /** Cap on the extent length, for fragmentation experiments. */
    uint32_t blocksPerExtent;
};

/** Description of a whole image. */
struct FsImageSpec
{
    uint32_t totalBlocks = 16384;  //!< 16 MiB at 1 KiB blocks
    uint32_t totalInodes = 512;
    uint32_t blockSize = DEFAULT_BLOCK_SIZE;
    std::vector<std::string> dirs;
    std::vector<FileSpec> files;

    /**
     * The pattern contents (see FsImage::patternData) of @p size bytes
     * from @p seed, generated once per spec and shared by every file
     * that asks for the same pair.
     */
    SharedBytes pattern(size_t size, uint64_t seed);

  private:
    std::map<std::pair<size_t, uint64_t>, SharedBytes> patterns;
};

/** A built filesystem image in DRAM. */
class FsImage
{
  public:
    FsImage(Dram &dram, goff_t base, const FsImageSpec &spec)
        : accessor(dram, base), fsCore(accessor),
          bytes(static_cast<uint64_t>(spec.totalBlocks) * spec.blockSize)
    {
        if (base + bytes > dram.size())
            fatal("filesystem image exceeds the DRAM");
        FsCore::format(accessor, spec.totalBlocks, spec.totalInodes,
                       spec.blockSize);
        if (!fsCore.load())
            panic("built image failed to load");
        for (const std::string &d : spec.dirs) {
            Error e = fsCore.createDir(d);
            if (e != Error::None)
                fatal("creating image dir '%s': %s", d.c_str(),
                      errorName(e));
        }
        for (const FileSpec &f : spec.files) {
            Error e = fsCore.createFile(f.path, f.data, f.blocksPerExtent);
            if (e != Error::None)
                fatal("creating image file '%s': %s", f.path.c_str(),
                      errorName(e));
        }
    }

    /**
     * A copy of @p from at @p base of @p dram, which may be @p from's
     * DRAM module or another one: the copy holds the same bytes and
     * refers to the same shared file contents, and costs only the pages
     * @p from has written.
     */
    FsImage(Dram &dram, goff_t base, const FsImage &from)
        : accessor(dram, base), fsCore(accessor), bytes(from.bytes)
    {
        // The copy is bounds-checked, and the superblock it loads is one
        // that loaded.
        accessor.copyFrom(from.accessor, bytes);
        fsCore.load();
    }

    FsCore &core() { return fsCore; }
    uint64_t sizeBytes() const { return bytes; }

    /** Deterministic pseudo-random file contents. */
    static std::vector<uint8_t>
    patternData(size_t size, uint64_t seed)
    {
        std::vector<uint8_t> data(size);
        Random(seed).fillLowBytes(data.data(), size);
        return data;
    }

  private:
    DramAccess accessor;
    FsCore fsCore;
    uint64_t bytes;
};

inline SharedBytes
FsImageSpec::pattern(size_t size, uint64_t seed)
{
    SharedBytes &bytes = patterns[{size, seed}];
    if (!bytes)
        bytes = std::make_shared<const std::vector<uint8_t>>(
            FsImage::patternData(size, seed));
    return bytes;
}

} // namespace m3fs
} // namespace m3

#endif // M3_M3FS_FS_IMAGE_HH
