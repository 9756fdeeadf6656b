#include "trace/sinkfiles.hh"

#include <cstdio>

#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace m3
{
namespace trace
{

bool
writeFile(const std::string &path, const Producer &produce)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool written = produce([f](std::string_view chunk) {
        return std::fwrite(chunk.data(), 1, chunk.size(), f) ==
               chunk.size();
    });
    return std::fclose(f) == 0 && written;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    return writeFile(path,
                     [&text](const ChunkSink &out) { return out(text); });
}

bool
SinkFiles::parse(const std::string &arg)
{
    if (arg.rfind("--trace=", 0) == 0)
        traceFile = arg.substr(8);
    else if (arg.rfind("--metrics=", 0) == 0)
        metricsFile = arg.substr(10);
    else
        return false;
    return true;
}

void
SinkFiles::enable() const
{
    if (!traceFile.empty())
        Tracer::enable();
    if (!metricsFile.empty())
        Metrics::enable();
}

bool
SinkFiles::write(const char *prog) const
{
    auto one = [prog](const char *what, const std::string &path,
                      const Producer &produce) {
        if (path.empty() || writeFile(path, produce))
            return true;
        std::fprintf(stderr, "%s: cannot write %s to %s\n", prog, what,
                     path.c_str());
        return false;
    };
    const bool traceOk = one("trace", traceFile, Tracer::writeJson);
    const bool metricsOk =
        one("metrics", metricsFile, [](const ChunkSink &out) {
            return out(Metrics::toJson());
        });
    return traceOk && metricsOk;
}

} // namespace trace
} // namespace m3
