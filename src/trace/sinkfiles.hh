/**
 * @file
 * The trace and metrics files of a command-line front end: one way to
 * parse --trace=FILE and --metrics=FILE, turn those sinks on and write
 * them, with one error message for a failed write.
 */

#ifndef M3_TRACE_SINKFILES_HH
#define M3_TRACE_SINKFILES_HH

#include <string>

namespace m3
{
namespace trace
{

/** Write @p text to @p path. @return false if open, write or close fails. */
bool writeFile(const std::string &path, const std::string &text);

/** A front end's --trace=FILE and --metrics=FILE options. */
struct SinkFiles
{
    std::string traceFile;    //!< Chrome trace (Tracer), "" = none
    std::string metricsFile;  //!< metric registry dump, "" = none

    /** Take @p arg if it is --trace=FILE or --metrics=FILE. */
    bool parse(const std::string &arg);
    /** Turn on the sinks that have a file. */
    void enable() const;
    /**
     * Write every file asked for; each failure prints "<prog>: cannot
     * write <trace|metrics> to <path>". @return false if one failed.
     */
    bool write(const char *prog) const;
};

} // namespace trace
} // namespace m3

#endif // M3_TRACE_SINKFILES_HH
