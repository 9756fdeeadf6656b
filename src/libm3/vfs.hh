/**
 * @file
 * The virtual filesystem layer of libm3 (Sec. 4.5.8): POSIX-like
 * abstractions (open, read, write, seek, close, stat, ...) over
 * mountable filesystem implementations (m3fs, the pipe filesystem).
 */

#ifndef M3_LIBM3_VFS_HH
#define M3_LIBM3_VFS_HH

#include <memory>
#include <string>
#include <vector>

#include "base/bytes.hh"
#include "base/errors.hh"
#include "base/types.hh"

namespace m3
{

/** Open flags. */
enum OpenFlags : uint32_t
{
    FILE_R = 1,       //!< readable
    FILE_W = 2,       //!< writable
    FILE_RW = FILE_R | FILE_W,
    FILE_CREATE = 4,  //!< create if missing
    FILE_TRUNC = 8,   //!< truncate to zero length
    FILE_APPEND = 16, //!< start writing at the end
};

/** Inode modes. */
enum FileMode : uint32_t
{
    M_FILE = 0x8000,
    M_DIR = 0x4000,
};

/** The result of a stat operation. */
struct FileInfo
{
    uint32_t ino = 0;
    uint32_t mode = 0;
    uint32_t links = 0;
    uint32_t extents = 0;
    uint64_t size = 0;

    bool isDir() const { return mode & M_DIR; }
};

/** One directory entry. */
struct DirEntry
{
    uint32_t ino;
    std::string name;
};

/** Seek anchors. */
enum class SeekMode
{
    Set,
    Cur,
    End,
};

/** An open file (or pipe end). Closing happens on destruction. */
class File
{
  public:
    virtual ~File() = default;

    /**
     * Read up to @p len bytes into @p buf.
     * @return bytes read (0 at EOF), or negative -Error.
     */
    virtual ssize_t read(void *buf, size_t len) = 0;

    /** Write @p len bytes. @return bytes written or negative -Error. */
    virtual ssize_t write(const void *buf, size_t len) = 0;

    /**
     * Read up to @p len bytes as @p buf, for a program that moves the
     * bytes without looking at them. The default reads through a host
     * buffer; a file whose data a memory gate moves reads shared bytes
     * by reference. @return as read(void *, size_t).
     */
    virtual ssize_t read(Bytes &buf, size_t len);

    /** Write @p buf; by reference where read(Bytes &) is. @return as
     *  write(const void *, size_t). */
    virtual ssize_t write(const Bytes &buf);

    /** Move the file position. @return new position or negative. */
    virtual ssize_t seek(ssize_t off, SeekMode whence) = 0;

    /** Attributes of the open file. */
    virtual Error stat(FileInfo &info) = 0;
};

/** A mountable filesystem. */
class FileSystem
{
  public:
    virtual ~FileSystem() = default;

    virtual std::unique_ptr<File> open(const std::string &path,
                                       uint32_t flags, Error &err) = 0;
    virtual Error stat(const std::string &path, FileInfo &info) = 0;
    virtual Error mkdir(const std::string &path) = 0;
    virtual Error unlink(const std::string &path) = 0;
    virtual Error link(const std::string &oldPath,
                       const std::string &newPath) = 0;
    virtual Error rename(const std::string &oldPath,
                         const std::string &newPath) = 0;
    virtual Error readdir(const std::string &path,
                          std::vector<DirEntry> &entries) = 0;
};

/**
 * The per-VPE mount table. Filesystems are mounted at path prefixes;
 * the longest matching prefix wins (Sec. 4.5.8).
 */
class Vfs
{
  public:
    Error mount(const std::string &prefix, std::shared_ptr<FileSystem> fs);
    Error unmount(const std::string &prefix);

    std::unique_ptr<File> open(const std::string &path, uint32_t flags,
                               Error &err);
    Error stat(const std::string &path, FileInfo &info);
    Error mkdir(const std::string &path);
    Error unlink(const std::string &path);
    Error link(const std::string &oldPath, const std::string &newPath);
    Error rename(const std::string &oldPath, const std::string &newPath);
    Error readdir(const std::string &path, std::vector<DirEntry> &entries);

    /** The filesystem mounted at the longest matching prefix. */
    FileSystem *resolve(const std::string &path, std::string &rest);

  private:
    struct Mount
    {
        std::string prefix;
        std::shared_ptr<FileSystem> fs;
    };
    std::vector<Mount> mounts;
};

} // namespace m3

#endif // M3_LIBM3_VFS_HH
