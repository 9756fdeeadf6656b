#include "libm3/vfs.hh"

#include "base/logging.hh"

namespace m3
{

ssize_t
File::read(Bytes &buf, size_t len)
{
    std::vector<uint8_t> host(len);
    ssize_t n = read(host.data(), len);
    buf = n > 0 ? Bytes::copyOf(host.data(), static_cast<size_t>(n))
                : Bytes();
    return n;
}

ssize_t
File::write(const Bytes &buf)
{
    std::vector<uint8_t> host(buf.size());
    buf.copyTo(host.data());
    return write(host.data(), host.size());
}

Error
Vfs::mount(const std::string &prefix, std::shared_ptr<FileSystem> fs)
{
    for (const Mount &m : mounts)
        if (m.prefix == prefix)
            return Error::CapExists;
    mounts.push_back(Mount{prefix, std::move(fs)});
    return Error::None;
}

Error
Vfs::unmount(const std::string &prefix)
{
    for (auto it = mounts.begin(); it != mounts.end(); ++it) {
        if (it->prefix == prefix) {
            mounts.erase(it);
            return Error::None;
        }
    }
    return Error::NoSuchFile;
}

FileSystem *
Vfs::resolve(const std::string &path, std::string &rest)
{
    const Mount *best = nullptr;
    for (const Mount &m : mounts) {
        if (path.rfind(m.prefix, 0) == 0 &&
            (!best || m.prefix.size() > best->prefix.size())) {
            best = &m;
        }
    }
    if (!best)
        return nullptr;
    rest = path.substr(best->prefix.size());
    if (rest.empty() || rest[0] != '/')
        rest = "/" + rest;
    return best->fs.get();
}

std::unique_ptr<File>
Vfs::open(const std::string &path, uint32_t flags, Error &err)
{
    std::string rest;
    FileSystem *fs = resolve(path, rest);
    if (!fs) {
        err = Error::NoSuchFile;
        return nullptr;
    }
    return fs->open(rest, flags, err);
}

Error
Vfs::stat(const std::string &path, FileInfo &info)
{
    std::string rest;
    FileSystem *fs = resolve(path, rest);
    return fs ? fs->stat(rest, info) : Error::NoSuchFile;
}

Error
Vfs::mkdir(const std::string &path)
{
    std::string rest;
    FileSystem *fs = resolve(path, rest);
    return fs ? fs->mkdir(rest) : Error::NoSuchFile;
}

Error
Vfs::unlink(const std::string &path)
{
    std::string rest;
    FileSystem *fs = resolve(path, rest);
    return fs ? fs->unlink(rest) : Error::NoSuchFile;
}

Error
Vfs::link(const std::string &oldPath, const std::string &newPath)
{
    std::string restOld, restNew;
    FileSystem *fsOld = resolve(oldPath, restOld);
    FileSystem *fsNew = resolve(newPath, restNew);
    if (!fsOld || fsOld != fsNew)
        return Error::NoSuchFile;
    return fsOld->link(restOld, restNew);
}

Error
Vfs::rename(const std::string &oldPath, const std::string &newPath)
{
    std::string restOld, restNew;
    FileSystem *fsOld = resolve(oldPath, restOld);
    FileSystem *fsNew = resolve(newPath, restNew);
    if (!fsOld || fsOld != fsNew)
        return Error::NoSuchFile;
    return fsOld->rename(restOld, restNew);
}

Error
Vfs::readdir(const std::string &path, std::vector<DirEntry> &entries)
{
    std::string rest;
    FileSystem *fs = resolve(path, rest);
    return fs ? fs->readdir(rest, entries) : Error::NoSuchFile;
}

} // namespace m3
