/**
 * @file
 * Error-reporting and status-message helpers in the gem5 idiom:
 * panic() for simulator bugs, fatal() for user errors, warn()/inform()
 * for status messages. All accept printf-style format strings.
 */

#ifndef M3_BASE_LOGGING_HH
#define M3_BASE_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace m3
{

/** Verbosity levels for the tracing facility. */
enum class LogLevel
{
    Quiet,
    Info,
    Debug,
    Trace,
};

/**
 * Global logging configuration. Benches run quiet; tests and examples can
 * raise the level to watch messages flow through the NoC.
 */
class Log
{
  public:
    static LogLevel level;

    /** Returns true if messages at @p lvl should be printed. */
    static bool enabled(LogLevel lvl) { return lvl <= level; }
};

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));
void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
void traceImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * panic: something happened that should never happen regardless of what
 * the user does, i.e. a bug in this simulator. Aborts.
 */
#define panic(...) ::m3::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/**
 * fatal: the simulation cannot continue due to a condition that is the
 * user's fault (bad configuration, invalid arguments). Exits with code 1.
 */
#define fatal(...) ::m3::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

#define warn(...) ::m3::warnImpl(__VA_ARGS__)
#define inform(...)                                                         \
    do {                                                                    \
        if (::m3::Log::enabled(::m3::LogLevel::Info))                       \
            ::m3::informImpl(__VA_ARGS__);                                  \
    } while (0)
#define logtrace(...)                                                       \
    do {                                                                    \
        if (::m3::Log::enabled(::m3::LogLevel::Trace))                      \
            ::m3::traceImpl(__VA_ARGS__);                                   \
    } while (0)

} // namespace m3

#endif // M3_BASE_LOGGING_HH
