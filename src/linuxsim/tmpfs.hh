/**
 * @file
 * The tmpfs of the Linux baseline (Sec. 5.4 compares m3fs against it):
 * an in-memory filesystem with 4 KiB pages. This class is functional
 * only — all cycle costs are charged by the Process syscall layer.
 */

#ifndef M3_LINUXSIM_TMPFS_HH
#define M3_LINUXSIM_TMPFS_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/errors.hh"
#include "base/types.hh"

namespace m3
{
namespace lx
{

/** tmpfs page size. */
static constexpr size_t PAGE_SIZE = 4 * KiB;

/** An in-memory inode: a file of pages or a directory of entries. */
struct TmpNode
{
    TmpNode(uint32_t ino, bool dir) : ino(ino), isDir(dir) {}

    uint32_t ino;
    bool isDir;
    uint32_t links = 1;
    uint64_t size = 0;
    /** File pages; entries are allocated (and zeroed) on first touch. */
    std::vector<std::unique_ptr<uint8_t[]>> pages;
    /** Directory entries. */
    std::map<std::string, std::shared_ptr<TmpNode>> entries;

    /** Page @p idx, allocated on demand. @return (page, wasFresh). */
    std::pair<uint8_t *, bool>
    page(size_t idx)
    {
        bool fresh = false;
        if (idx >= pages.size())
            pages.resize(idx + 1);
        if (!pages[idx]) {
            pages[idx] = std::make_unique<uint8_t[]>(PAGE_SIZE);
            fresh = true;
        }
        return {pages[idx].get(), fresh};
    }
};

/** Result of a path walk. */
struct TmpResolve
{
    std::shared_ptr<TmpNode> node;    //!< nullptr if missing
    std::shared_ptr<TmpNode> parent;  //!< nullptr if path invalid
    std::string leaf;
    uint32_t components = 0;  //!< walked components (for costing)
};

/** The filesystem tree. */
class Tmpfs
{
  public:
    Tmpfs() : root(std::make_shared<TmpNode>(nextIno++, true)) {}

    TmpResolve
    resolve(const std::string &path)
    {
        TmpResolve res;
        std::shared_ptr<TmpNode> cur = root;
        std::shared_ptr<TmpNode> parent;
        std::string leaf;
        size_t pos = 0;
        while (pos < path.size()) {
            size_t next = path.find('/', pos);
            if (next == std::string::npos)
                next = path.size();
            if (next > pos) {
                std::string comp = path.substr(pos, next - pos);
                res.components++;
                if (!cur || !cur->isDir) {
                    res.parent = nullptr;
                    return res;
                }
                parent = cur;
                leaf = comp;
                auto it = cur->entries.find(comp);
                cur = it == cur->entries.end() ? nullptr : it->second;
            }
            pos = next + 1;
        }
        res.node = cur;
        res.parent = parent ? parent : (cur == root ? nullptr : root);
        if (res.components == 0)
            res.parent = nullptr;
        res.leaf = leaf;
        return res;
    }

    /** Create a file or directory at @p path (parent must exist). */
    std::shared_ptr<TmpNode>
    create(const std::string &path, bool dir, Error &err)
    {
        TmpResolve r = resolve(path);
        if (r.node) {
            err = Error::FileExists;
            return nullptr;
        }
        std::shared_ptr<TmpNode> parent = r.parent;
        if (!parent && r.components == 1)
            parent = root;
        if (!parent) {
            err = Error::NoSuchFile;
            return nullptr;
        }
        auto node = std::make_shared<TmpNode>(nextIno++, dir);
        parent->entries[r.leaf] = node;
        err = Error::None;
        return node;
    }

    Error
    unlink(const std::string &path)
    {
        TmpResolve r = resolve(path);
        if (!r.node || !r.parent)
            return Error::NoSuchFile;
        if (r.node->isDir && !r.node->entries.empty())
            return Error::DirNotEmpty;
        r.parent->entries.erase(r.leaf);
        r.node->links--;
        return Error::None;
    }

    Error
    link(const std::string &oldPath, const std::string &newPath)
    {
        TmpResolve ro = resolve(oldPath);
        if (!ro.node)
            return Error::NoSuchFile;
        TmpResolve rn = resolve(newPath);
        if (rn.node)
            return Error::FileExists;
        std::shared_ptr<TmpNode> parent = rn.parent ? rn.parent : root;
        if (rn.components == 0)
            return Error::NoSuchFile;
        parent->entries[rn.leaf] = ro.node;
        ro.node->links++;
        return Error::None;
    }

    Error
    rename(const std::string &oldPath, const std::string &newPath)
    {
        TmpResolve ro = resolve(oldPath);
        if (!ro.node || !ro.parent)
            return Error::NoSuchFile;
        TmpResolve rn = resolve(newPath);
        if (rn.node)
            return Error::FileExists;
        std::shared_ptr<TmpNode> parent = rn.parent ? rn.parent : root;
        if (rn.components == 0)
            return Error::NoSuchFile;
        parent->entries[rn.leaf] = ro.node;
        ro.parent->entries.erase(ro.leaf);
        return Error::None;
    }

    std::shared_ptr<TmpNode> rootNode() { return root; }

  private:
    uint32_t nextIno = 1;
    std::shared_ptr<TmpNode> root;
};

} // namespace lx
} // namespace m3

#endif // M3_LINUXSIM_TMPFS_HH
