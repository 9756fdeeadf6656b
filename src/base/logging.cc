#include "base/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace m3
{

namespace
{

/**
 * The initial verbosity honors the M3_LOG environment variable
 * (quiet/info/debug/trace), so any harness can be made chatty without a
 * rebuild or a command-line flag. Unknown values keep the quiet default.
 */
LogLevel
initLevel()
{
    const char *env = std::getenv("M3_LOG");
    if (!env)
        return LogLevel::Quiet;
    std::string v(env);
    if (v == "info")
        return LogLevel::Info;
    if (v == "debug")
        return LogLevel::Debug;
    if (v == "trace")
        return LogLevel::Trace;
    if (v != "quiet" && !v.empty())
        std::fprintf(stderr, "warn: unknown M3_LOG level '%s', using quiet\n",
                     env);
    return LogLevel::Quiet;
}

} // anonymous namespace

LogLevel Log::level = initLevel();

namespace
{

/**
 * One emit per line, serialized: the simulator itself is single-threaded,
 * but a host program may log from several threads. Each emit is a single
 * fprintf of a fully formatted line, yet POSIX only promises atomicity
 * per stdio call on the same stream — a process-wide mutex guarantees
 * lines are never torn regardless of libc, and it costs nothing when
 * logging is quiet (callers check Log::level before calling into these).
 */
std::mutex &
emitLock()
{
    static std::mutex mu;
    return mu;
}

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int len = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out;
    if (len > 0) {
        out.resize(static_cast<size_t>(len));
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    }
    va_end(ap2);
    return out;
}

} // anonymous namespace

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::lock_guard<std::mutex> lk(emitLock());
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::lock_guard<std::mutex> lk(emitLock());
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
traceImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::lock_guard<std::mutex> lk(emitLock());
    std::fprintf(stdout, "trace: %s\n", msg.c_str());
}

} // namespace m3
