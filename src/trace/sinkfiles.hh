/**
 * @file
 * The trace and metrics files of a command-line front end: one way to
 * parse --trace=FILE and --metrics=FILE, turn those sinks on and write
 * them, with one error message for a failed write.
 */

#ifndef M3_TRACE_SINKFILES_HH
#define M3_TRACE_SINKFILES_HH

#include <string>

#include "trace/trace.hh"

namespace m3
{
namespace trace
{

/** Produces a file's contents, chunk by chunk, into the sink it gets. */
using Producer = std::function<bool(const ChunkSink &)>;

/**
 * Write what @p produce hands its sink to @p path, one chunk at a time.
 * @return false if the open, a write or the close fails.
 */
bool writeFile(const std::string &path, const Producer &produce);

/** Write @p text to @p path (writeFile with a one-chunk producer). */
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
