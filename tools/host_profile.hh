/**
 * @file
 * A host PC sampler: where does the host time of a run go?
 *
 * While armed, a SIGPROF timer (ITIMER_PROF, 1 ms of process CPU time;
 * the kernel delivers about one signal per tick) interrupts the process
 * and the handler stores the interrupted program counter into a
 * preallocated array — nothing else, so it is async-signal-safe. On
 * stop the samples are folded by PC and written as text:
 *
 *     # m3 host profile
 *     # exe /path/to/m3bench
 *     # samples 930 lost 0
 *     <count> exe 0x<offset>              (PC in the executable)
 *     <count> libc.so.6 0x<offset> <sym>  (PC in a shared object)
 *
 * Offsets are relative to the object's load base, the form addr2line
 * takes for both PIE and non-PIE executables. `tools/hostprof.py` turns
 * one or more such files into top functions and a per-layer fold. Off
 * unless started: no handler, no timer, no buffer.
 */

#ifndef M3_TOOLS_HOST_PROFILE_HH
#define M3_TOOLS_HOST_PROFILE_HH

#include <string>

namespace m3
{

class HostProfile
{
  public:
    /** Start sampling if @p file is non-empty; the samples go there. */
    explicit HostProfile(std::string file);

    /** Stop sampling and write the file (if started). */
    ~HostProfile();

    HostProfile(const HostProfile &) = delete;
    HostProfile &operator=(const HostProfile &) = delete;

  private:
    std::string file;
};

} // namespace m3

#endif // M3_TOOLS_HOST_PROFILE_HH
