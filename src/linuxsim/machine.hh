/**
 * @file
 * The Linux baseline machine (Sec. 5.1): one time-shared general-purpose
 * core running a traditional monolithic kernel. Processes are fibers
 * scheduled one-at-a-time (mode switches, context switches and page-cache
 * work are charged from the calibrated cost table); tmpfs and pipes
 * carry real data so the same workloads run on both systems.
 *
 * Two cache modes reproduce the paper's Lx / Lx-$ bars: with cache
 * misses, memcpy runs at the miss-limited rate (no cache-line prefetcher
 * on Xtensa, Sec. 5.2); in the all-hit mode at the pipeline-limited rate.
 */

#ifndef M3_LINUXSIM_MACHINE_HH
#define M3_LINUXSIM_MACHINE_HH

#include <algorithm>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/cost_model.hh"
#include "linuxsim/tmpfs.hh"
#include "sim/simulator.hh"

namespace m3
{
namespace lx
{

/** Configuration of the baseline. */
struct LinuxConfig
{
    LinuxCosts costs = LinuxCosts::xtensa();
    ComputeCosts compute;
    /** Lx-$ mode: every memory access hits in the cache (Sec. 5.1). */
    bool cacheAlwaysHit = false;
    /** Kernel pipe buffer capacity. */
    size_t pipeBufBytes = 64 * KiB;
};

class Machine;
class Process;

/** A kernel pipe: bounded byte ring plus wait queues. */
struct PipeBuf
{
    explicit PipeBuf(size_t capacity) : ring(capacity) {}

    size_t size() const { return used; }
    size_t space() const { return ring.size() - used; }

    /** Append @p n bytes; @p n must not exceed space(). */
    void
    push(const uint8_t *in, size_t n)
    {
        size_t tail = (head + used) % ring.size();
        size_t first = std::min(n, ring.size() - tail);
        std::memcpy(ring.data() + tail, in, first);
        std::memcpy(ring.data(), in + first, n - first);
        used += n;
    }

    /** Remove the oldest @p n bytes; @p n must not exceed size(). */
    void
    pop(uint8_t *out, size_t n)
    {
        size_t first = std::min(n, ring.size() - head);
        std::memcpy(out, ring.data() + head, first);
        std::memcpy(out + first, ring.data(), n - first);
        head = (head + n) % ring.size();
        used -= n;
    }

    uint32_t readers = 0;
    uint32_t writers = 0;
    std::vector<Process *> waitReaders;
    std::vector<Process *> waitWriters;

  private:
    std::vector<uint8_t> ring;
    size_t head = 0;
    size_t used = 0;
};

/** An entry of a process's file-descriptor table. */
struct FileDesc
{
    std::shared_ptr<TmpNode> node;  //!< regular file / dir
    std::shared_ptr<PipeBuf> pipe;  //!< or a pipe end
    bool pipeWriteEnd = false;
    uint64_t pos = 0;
    uint32_t flags = 0;
};

/** One Linux process (a fiber with a syscall interface). */
class Process
{
  public:
    Process(Machine &machine, int pid, std::string name);

    int pid() const { return procId; }
    Accounting &accounting();

    // --- syscalls (each charges its calibrated costs) ------------------

    /** A null syscall (the Fig. 3 micro-benchmark). */
    void nullSyscall();

    int open(const std::string &path, uint32_t flags, Error *err = nullptr);
    ssize_t read(int fd, void *buf, size_t len);
    ssize_t write(int fd, const void *buf, size_t len);
    ssize_t lseek(int fd, ssize_t off, int whence);
    int close(int fd);
    Error stat(const std::string &path, uint64_t &size, bool &isDir);
    Error mkdir(const std::string &path);
    Error unlink(const std::string &path);
    Error link(const std::string &oldPath, const std::string &newPath);
    Error rename(const std::string &oldPath, const std::string &newPath);
    Error readdir(const std::string &path,
                  std::vector<std::string> &names);
    ssize_t sendfile(int outFd, int inFd, size_t len);
    Error pipe(int fds[2]);
    void fsync(int fd);

    /** fork + optional exec: start @p main as a child process. */
    int fork(std::function<int(Process &)> main, bool withExec = false);

    /** Wait for the child @p pid to exit; returns its exit code. */
    int waitpid(int pid);

    /** Application computation. */
    void compute(Cycles cycles);

    /** The owning machine. */
    Machine &machine() { return m; }

  private:
    friend class Machine;

    void chargeOs(Cycles c);
    void chargeOsNoTime(Cycles c);
    void chargeXfer(Cycles c);
    void syscallEntry(Cycles extra = 0);
    void chargeThrash(size_t len);
    Cycles copyCost(size_t bytes) const;
    FileDesc *fdGet(int fd);
    int fdAlloc();
    void closeDesc(FileDesc &desc);
    void exitProcess(int code);

    Machine &m;
    int procId;
    std::string name;
    Fiber *fiber = nullptr;
    std::vector<std::optional<FileDesc>> fds;
    bool exited = false;
    int exitCode = 0;
    std::vector<Process *> waiters;
};

/** The machine: one CPU, a run queue, tmpfs. */
class Machine
{
  public:
    explicit Machine(LinuxConfig config);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Create the initial process (no fork cost). */
    Process &spawnInit(const std::string &name,
                       std::function<int(Process &)> main);

    /** Run until the event queue drains. */
    void simulate(Cycles limit = ~Cycles(0));

    /** Engine events executed by simulate() calls so far. */
    uint64_t eventsExecuted() const { return eventsRun; }

    Simulator &simulator() { return sim; }
    Tmpfs &fs() { return tmpfs; }
    const LinuxConfig &config() const { return cfg; }

    /** Merged accounting over all processes (for breakdown bars). */
    Accounting mergedAccounting() const;

    Cycles now() const { return sim.curCycle(); }

  private:
    friend class Process;

    /** Scheduler: make @p p runnable (wakes the CPU if idle). */
    void makeRunnable(Process *p);

    /** Block the calling process until made runnable again. */
    void blockCurrent();

    /** Pick and dispatch the next runnable process. */
    void scheduleNext();

    Process &spawnProcess(const std::string &name,
                          std::function<int(Process &)> main);

    LinuxConfig cfg;
    Simulator sim;
    Tmpfs tmpfs;
    uint64_t eventsRun = 0;

    Process *current = nullptr;
    std::deque<Process *> runQueue;
    std::vector<std::unique_ptr<Process>> processes;
    int nextPid = 1;
};

} // namespace lx
} // namespace m3

#endif // M3_LINUXSIM_MACHINE_HH
