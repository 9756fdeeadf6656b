#include "host_profile.hh"

#include <dlfcn.h>
#include <link.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace m3
{

namespace
{

#if defined(__x86_64__)
#define M3_SAMPLED_PC(uc) ((uc)->uc_mcontext.gregs[REG_RIP])
#elif defined(__aarch64__)
#define M3_SAMPLED_PC(uc) ((uc)->uc_mcontext.pc)
#endif

/** 8 MiB of PCs: over an hour of CPU time at one sample per 4 ms. The
 *  pages are only committed as samples fill them. */
constexpr size_t CAPACITY = size_t(1) << 20;

/** The samples: allocated by HostProfile's constructor, freed by its
 *  destructor once the timer is off. One profile at a time. */
uintptr_t *pcs = nullptr;
std::atomic<size_t> taken{0};
std::atomic<size_t> lost{0};

#ifdef M3_SAMPLED_PC
void
onProf(int, siginfo_t *, void *uc)
{
    const uintptr_t pc = static_cast<uintptr_t>(
        M3_SAMPLED_PC(static_cast<ucontext_t *>(uc)));
    const size_t i = taken.load(std::memory_order_relaxed);
    if (i < CAPACITY) {
        pcs[i] = pc;
        taken.store(i + 1, std::memory_order_relaxed);
    } else {
        lost.fetch_add(1, std::memory_order_relaxed);
    }
}
#endif

/** A loaded object: its load bias and the address range it spans. */
struct Object
{
    std::string name;
    uintptr_t bias;
    uintptr_t lo;
    uintptr_t hi;
};

int
addObject(dl_phdr_info *info, size_t, void *data)
{
    Object o{info->dlpi_name ? info->dlpi_name : "", info->dlpi_addr,
             UINTPTR_MAX, 0};
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[i];
        if (ph.p_type != PT_LOAD)
            continue;
        o.lo = std::min<uintptr_t>(o.lo, info->dlpi_addr + ph.p_vaddr);
        o.hi = std::max<uintptr_t>(o.hi, info->dlpi_addr + ph.p_vaddr +
                                             ph.p_memsz);
    }
    static_cast<std::vector<Object> *>(data)->push_back(std::move(o));
    return 0;
}

std::string
baseName(const std::string &path)
{
    const size_t slash = path.rfind('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

} // anonymous namespace

HostProfile::HostProfile(std::string file) : file(std::move(file))
{
    if (this->file.empty())
        return;
#ifdef M3_SAMPLED_PC
    pcs = new uintptr_t[CAPACITY];
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    itimerval every{};
    every.it_interval.tv_usec = 1000;
    every.it_value.tv_usec = 1000;
    setitimer(ITIMER_PROF, &every, nullptr);
#else
    std::fprintf(stderr, "--host-profile: no PC sampler for this CPU\n");
    std::exit(2);
#endif
}

HostProfile::~HostProfile()
{
    if (file.empty())
        return;
    itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    signal(SIGPROF, SIG_IGN);

    std::map<uintptr_t, uint64_t> byPc;
    const size_t n = taken.load();
    for (size_t i = 0; i < n; ++i)
        byPc[pcs[i]]++;
    delete[] pcs;
    pcs = nullptr;

    // dl_iterate_phdr lists the executable first.
    std::vector<Object> objects;
    dl_iterate_phdr(addObject, &objects);
    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    exe[len > 0 ? len : 0] = '\0';

    FILE *out = std::fopen(file.c_str(), "w");
    if (!out) {
        std::perror(file.c_str());
        return;
    }
    std::fprintf(out, "# m3 host profile\n# exe %s\n# samples %zu lost %zu\n",
                 exe, n, lost.load());
    for (const auto &[pc, count] : byPc) {
        const Object *in = nullptr;
        for (const Object &o : objects) {
            if (pc >= o.lo && pc < o.hi) {
                in = &o;
                break;
            }
        }
        if (in && in == objects.data()) {
            std::fprintf(out, "%llu exe 0x%llx\n",
                         static_cast<unsigned long long>(count),
                         static_cast<unsigned long long>(pc - in->bias));
        } else if (in) {
            Dl_info info{};
            const char *sym = "?";
            if (dladdr(reinterpret_cast<void *>(pc), &info) &&
                info.dli_sname)
                sym = info.dli_sname;
            std::fprintf(out, "%llu %s 0x%llx %s\n",
                         static_cast<unsigned long long>(count),
                         baseName(in->name).c_str(),
                         static_cast<unsigned long long>(pc - in->bias),
                         sym);
        } else {
            std::fprintf(out, "%llu ? 0x%llx\n",
                         static_cast<unsigned long long>(count),
                         static_cast<unsigned long long>(pc));
        }
    }
    std::fclose(out);
}

} // namespace m3
