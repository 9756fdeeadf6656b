#include "linuxsim/machine.hh"

#include <cstring>

#include "base/logging.hh"

namespace m3
{
namespace lx
{

// ---------------------------------------------------------------------
// Machine / scheduler.
// ---------------------------------------------------------------------

Machine::Machine(LinuxConfig config) : cfg(std::move(config))
{
}

Process &
Machine::spawnProcess(const std::string &name,
                      std::function<int(Process &)> main)
{
    auto proc = std::make_unique<Process>(*this, nextPid++, name);
    Process *p = proc.get();
    processes.push_back(std::move(proc));

    p->fiber = &sim.spawn("lx:" + name, [this, p, main = std::move(main)] {
        // Wait until the scheduler dispatches us.
        while (current != p)
            Fiber::current()->block();
        int rc = main(*p);
        p->exitProcess(rc);
    });
    p->fiber->start();
    return *p;
}

Process &
Machine::spawnInit(const std::string &name,
                   std::function<int(Process &)> main)
{
    Process &p = spawnProcess(name, std::move(main));
    makeRunnable(&p);
    return p;
}

void
Machine::makeRunnable(Process *p)
{
    runQueue.push_back(p);
    if (!current)
        scheduleNext();
}

void
Machine::scheduleNext()
{
    if (runQueue.empty()) {
        current = nullptr;
        return;
    }
    Process *next = runQueue.front();
    runQueue.pop_front();
    // The context switch takes time before the next process runs
    // (Fig. 3/5: part of what M3 avoids by not time-sharing).
    next->chargeOsNoTime(cfg.costs.contextSwitch);
    sim.queue().schedule(cfg.costs.contextSwitch, [this, next] {
        current = next;
        next->fiber->unblock();
    });
}

void
Machine::blockCurrent()
{
    Process *self = current;
    if (!self || Fiber::current() != self->fiber)
        panic("blockCurrent outside the running process");
    current = nullptr;
    scheduleNext();
    while (current != self)
        self->fiber->block();
}

void
Machine::simulate(Cycles limit)
{
    eventsRun += sim.simulate(limit);
}

Accounting
Machine::mergedAccounting() const
{
    Accounting total;
    for (const auto &p : processes)
        total.merge(p->fiber->accounting());
    return total;
}

// ---------------------------------------------------------------------
// Process basics.
// ---------------------------------------------------------------------

Process::Process(Machine &machine, int pid, std::string name)
    : m(machine), procId(pid), name(std::move(name))
{
    fds.resize(64);
}

Accounting &
Process::accounting()
{
    return fiber->accounting();
}

void
Process::chargeOs(Cycles c)
{
    fiber->computeAs(Category::Os, c);
}

void
Process::chargeOsNoTime(Cycles c)
{
    // Used by the scheduler: the time passes via a scheduled event; only
    // the attribution is recorded here.
    fiber->accounting().chargeTo(Category::Os, c);
}

void
Process::chargeXfer(Cycles c)
{
    fiber->computeAs(Category::Xfer, c);
}

void
Process::compute(Cycles cycles)
{
    fiber->computeAs(Category::App, cycles);
}

void
Process::syscallEntry(Cycles extra)
{
    chargeOs(m.cfg.costs.syscallEnterLeave + extra);
}

void
Process::chargeThrash(size_t len)
{
    // User buffers past the threshold thrash the D-cache between the
    // kernel copy and the user access (the 4 KiB sweet spot, Sec. 5.4).
    if (len > m.cfg.costs.copyThrashThreshold && !m.cfg.cacheAlwaysHit) {
        chargeXfer(static_cast<Cycles>(
            static_cast<double>(len - m.cfg.costs.copyThrashThreshold) *
            m.cfg.costs.largeBufThrashPerByte));
    }
}

Cycles
Process::copyCost(size_t bytes) const
{
    double rate = m.cfg.cacheAlwaysHit
                      ? m.cfg.costs.copyBytesPerCycleHit
                      : m.cfg.costs.copyBytesPerCycleMiss;
    return static_cast<Cycles>(static_cast<double>(bytes) / rate);
}

void
Process::nullSyscall()
{
    syscallEntry(m.cfg.costs.syscallNullRest);
}

FileDesc *
Process::fdGet(int fd)
{
    if (fd < 0 || static_cast<size_t>(fd) >= fds.size() || !fds[fd])
        return nullptr;
    return &*fds[fd];
}

int
Process::fdAlloc()
{
    for (size_t i = 0; i < fds.size(); ++i)
        if (!fds[i])
            return static_cast<int>(i);
    fds.resize(fds.size() + 16);
    return static_cast<int>(fds.size() - 16);
}

// ---------------------------------------------------------------------
// File syscalls.
// ---------------------------------------------------------------------

int
Process::open(const std::string &path, uint32_t flags, Error *errOut)
{
    TmpResolve r = m.tmpfs.resolve(path);
    syscallEntry(r.components * m.cfg.costs.pathComponent + 250);

    std::shared_ptr<TmpNode> node = r.node;
    Error err = Error::None;
    if (!node) {
        if (!(flags & 4 /*create*/)) {
            if (errOut)
                *errOut = Error::NoSuchFile;
            return -1;
        }
        chargeOs(m.cfg.costs.inodeMgmt);
        node = m.tmpfs.create(path, false, err);
        if (!node) {
            if (errOut)
                *errOut = err;
            return -1;
        }
    }
    if (flags & 8 /*trunc*/) {
        node->pages.clear();
        node->size = 0;
        chargeOs(m.cfg.costs.inodeMgmt);
    }
    int fd = fdAlloc();
    FileDesc desc;
    desc.node = node;
    desc.flags = flags;
    desc.pos = (flags & 16 /*append*/) ? node->size : 0;
    fds[fd] = desc;
    if (errOut)
        *errOut = Error::None;
    return fd;
}

ssize_t
Process::read(int fd, void *buf, size_t len)
{
    FileDesc *d = fdGet(fd);
    if (!d)
        return -1;
    syscallEntry(m.cfg.costs.fdSecurity);
    chargeThrash(len);

    if (d->pipe) {
        PipeBuf &p = *d->pipe;
        chargeOs(m.cfg.costs.pipePath);
        while (p.size() == 0) {
            if (p.writers == 0)
                return 0;  // EOF
            p.waitReaders.push_back(this);
            m.blockCurrent();
        }
        size_t n = std::min(len, p.size());
        p.pop(static_cast<uint8_t *>(buf), n);
        chargeXfer(copyCost(n));
        for (Process *w : p.waitWriters)
            m.makeRunnable(w);
        p.waitWriters.clear();
        return static_cast<ssize_t>(n);
    }

    TmpNode &node = *d->node;
    uint8_t *out = static_cast<uint8_t *>(buf);
    size_t total = 0;
    while (total < len && d->pos < node.size) {
        size_t pageIdx = d->pos / PAGE_SIZE;
        size_t pageOff = d->pos % PAGE_SIZE;
        size_t chunk = std::min({len - total, PAGE_SIZE - pageOff,
                                 static_cast<size_t>(node.size - d->pos)});
        chargeOs(m.cfg.costs.pageCache);
        auto [page, fresh] = node.page(pageIdx);
        (void)fresh;
        std::memcpy(out + total, page + pageOff, chunk);
        chargeXfer(copyCost(chunk));
        d->pos += chunk;
        total += chunk;
    }
    return static_cast<ssize_t>(total);
}

ssize_t
Process::write(int fd, const void *buf, size_t len)
{
    FileDesc *d = fdGet(fd);
    if (!d)
        return -1;
    syscallEntry(m.cfg.costs.fdSecurity);
    chargeThrash(len);

    if (d->pipe) {
        PipeBuf &p = *d->pipe;
        chargeOs(m.cfg.costs.pipePath);
        const uint8_t *in = static_cast<const uint8_t *>(buf);
        size_t total = 0;
        while (total < len) {
            if (p.readers == 0)
                return -1;  // EPIPE
            size_t space = p.space();
            if (space == 0) {
                p.waitWriters.push_back(this);
                m.blockCurrent();
                continue;
            }
            size_t n = std::min(space, len - total);
            p.push(in + total, n);
            chargeXfer(copyCost(n));
            total += n;
            for (Process *r : p.waitReaders)
                m.makeRunnable(r);
            p.waitReaders.clear();
        }
        return static_cast<ssize_t>(total);
    }

    TmpNode &node = *d->node;
    const uint8_t *in = static_cast<const uint8_t *>(buf);
    size_t total = 0;
    while (total < len) {
        size_t pageIdx = d->pos / PAGE_SIZE;
        size_t pageOff = d->pos % PAGE_SIZE;
        size_t chunk = std::min(len - total, PAGE_SIZE - pageOff);
        chargeOs(m.cfg.costs.pageCache);
        auto [page, fresh] = node.page(pageIdx);
        if (fresh) {
            // tmpfs zeroes every fresh page before handing it to the
            // writer (Sec. 5.4).
            chargeOs(m.cfg.costs.pageZero);
        }
        std::memcpy(page + pageOff, in + total, chunk);
        chargeXfer(copyCost(chunk));
        d->pos += chunk;
        total += chunk;
        if (d->pos > node.size)
            node.size = d->pos;
    }
    return static_cast<ssize_t>(total);
}

ssize_t
Process::lseek(int fd, ssize_t off, int whence)
{
    FileDesc *d = fdGet(fd);
    if (!d || d->pipe)
        return -1;
    syscallEntry(30);
    int64_t target = 0;
    switch (whence) {
      case 0:
        target = off;
        break;
      case 1:
        target = static_cast<int64_t>(d->pos) + off;
        break;
      case 2:
        target = static_cast<int64_t>(d->node->size) + off;
        break;
    }
    if (target < 0)
        return -1;
    d->pos = static_cast<uint64_t>(target);
    return static_cast<ssize_t>(d->pos);
}

void
Process::closeDesc(FileDesc &desc)
{
    if (desc.pipe) {
        if (desc.pipeWriteEnd) {
            if (--desc.pipe->writers == 0) {
                for (Process *r : desc.pipe->waitReaders)
                    m.makeRunnable(r);
                desc.pipe->waitReaders.clear();
            }
        } else {
            if (--desc.pipe->readers == 0) {
                for (Process *w : desc.pipe->waitWriters)
                    m.makeRunnable(w);
                desc.pipe->waitWriters.clear();
            }
        }
    }
}

int
Process::close(int fd)
{
    FileDesc *d = fdGet(fd);
    if (!d)
        return -1;
    syscallEntry(50);
    closeDesc(*d);
    fds[fd].reset();
    return 0;
}

Error
Process::stat(const std::string &path, uint64_t &size, bool &isDir)
{
    TmpResolve r = m.tmpfs.resolve(path);
    // stat is well optimised on Linux (Sec. 5.6).
    syscallEntry(r.components * m.cfg.costs.pathComponent +
                 m.cfg.costs.statInode);
    if (!r.node)
        return Error::NoSuchFile;
    size = r.node->size;
    isDir = r.node->isDir;
    return Error::None;
}

Error
Process::mkdir(const std::string &path)
{
    TmpResolve r = m.tmpfs.resolve(path);
    syscallEntry(r.components * m.cfg.costs.pathComponent +
                 m.cfg.costs.inodeMgmt);
    Error err = Error::None;
    m.tmpfs.create(path, true, err);
    return err;
}

Error
Process::unlink(const std::string &path)
{
    TmpResolve r = m.tmpfs.resolve(path);
    syscallEntry(r.components * m.cfg.costs.pathComponent +
                 m.cfg.costs.inodeMgmt);
    return m.tmpfs.unlink(path);
}

Error
Process::link(const std::string &oldPath, const std::string &newPath)
{
    TmpResolve ro = m.tmpfs.resolve(oldPath);
    TmpResolve rn = m.tmpfs.resolve(newPath);
    syscallEntry((ro.components + rn.components) *
                     m.cfg.costs.pathComponent +
                 m.cfg.costs.inodeMgmt);
    return m.tmpfs.link(oldPath, newPath);
}

Error
Process::rename(const std::string &oldPath, const std::string &newPath)
{
    TmpResolve ro = m.tmpfs.resolve(oldPath);
    TmpResolve rn = m.tmpfs.resolve(newPath);
    syscallEntry((ro.components + rn.components) *
                     m.cfg.costs.pathComponent +
                 m.cfg.costs.inodeMgmt);
    return m.tmpfs.rename(oldPath, newPath);
}

Error
Process::readdir(const std::string &path, std::vector<std::string> &names)
{
    TmpResolve r = m.tmpfs.resolve(path);
    syscallEntry(r.components * m.cfg.costs.pathComponent);
    if (!r.node || !r.node->isDir)
        return Error::IsNoDirectory;
    chargeOs(r.node->entries.size() * m.cfg.costs.direntScan);
    for (auto &[name_, node] : r.node->entries)
        names.push_back(name_);
    return Error::None;
}

ssize_t
Process::sendfile(int outFd, int inFd, size_t len)
{
    FileDesc *in = fdGet(inFd);
    FileDesc *out = fdGet(outFd);
    if (!in || !out || in->pipe || out->pipe)
        return -1;
    syscallEntry(m.cfg.costs.fdSecurity);

    TmpNode &src = *in->node;
    TmpNode &dst = *out->node;
    size_t total = 0;
    while (total < len && in->pos < src.size) {
        size_t chunk = std::min({len - total, PAGE_SIZE,
                                 static_cast<size_t>(src.size - in->pos)});
        // One page-cache lookup on each side, one in-kernel copy.
        chargeOs(2 * m.cfg.costs.pageCache);
        auto [spage, sfresh] = src.page(in->pos / PAGE_SIZE);
        (void)sfresh;
        auto [dpage, dfresh] = dst.page(out->pos / PAGE_SIZE);
        if (dfresh)
            chargeOs(m.cfg.costs.pageZero);
        size_t soff = in->pos % PAGE_SIZE;
        size_t doff = out->pos % PAGE_SIZE;
        chunk = std::min({chunk, PAGE_SIZE - soff, PAGE_SIZE - doff});
        std::memcpy(dpage + doff, spage + soff, chunk);
        chargeXfer(copyCost(chunk));
        in->pos += chunk;
        out->pos += chunk;
        total += chunk;
        if (out->pos > dst.size)
            dst.size = out->pos;
    }
    return static_cast<ssize_t>(total);
}

Error
Process::pipe(int fds_[2])
{
    syscallEntry(m.cfg.costs.pipePath);
    auto buf = std::make_shared<PipeBuf>(m.cfg.pipeBufBytes);
    buf->readers = 1;
    buf->writers = 1;

    int rfd = fdAlloc();
    FileDesc rd;
    rd.pipe = buf;
    rd.pipeWriteEnd = false;
    fds[rfd] = rd;

    int wfd = fdAlloc();
    FileDesc wr;
    wr.pipe = buf;
    wr.pipeWriteEnd = true;
    fds[wfd] = wr;

    fds_[0] = rfd;
    fds_[1] = wfd;
    return Error::None;
}

void
Process::fsync(int)
{
    // tmpfs: nothing to persist, just the syscall itself.
    syscallEntry(100);
}

// ---------------------------------------------------------------------
// Processes.
// ---------------------------------------------------------------------

int
Process::fork(std::function<int(Process &)> main, bool withExec)
{
    chargeOs(m.cfg.costs.fork);
    if (withExec)
        chargeOs(m.cfg.costs.exec);

    Process &child = m.spawnProcess(name + "+", std::move(main));
    // The child inherits the file descriptors (pipe ends in particular).
    child.fds = fds;
    for (auto &d : child.fds) {
        if (d && d->pipe) {
            if (d->pipeWriteEnd)
                d->pipe->writers++;
            else
                d->pipe->readers++;
        }
    }
    m.makeRunnable(&child);
    return child.procId;
}

int
Process::waitpid(int pid)
{
    syscallEntry(100);
    for (auto &p : m.processes) {
        if (p->procId == pid) {
            while (!p->exited) {
                p->waiters.push_back(this);
                m.blockCurrent();
            }
            return p->exitCode;
        }
    }
    return -1;
}

void
Process::exitProcess(int code)
{
    for (auto &d : fds) {
        if (d) {
            closeDesc(*d);
            d.reset();
        }
    }
    exited = true;
    exitCode = code;
    for (Process *w : waiters)
        m.makeRunnable(w);
    waiters.clear();
    // Give up the CPU for good.
    if (m.current == this) {
        m.current = nullptr;
        m.scheduleNext();
    }
}

} // namespace lx
} // namespace m3
